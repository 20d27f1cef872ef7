#pragma once

#include <cstddef>

namespace humo::stats {

/// One stratum of a stratified random sample over a finite population of
/// 0/1 outcomes (match / unmatch). In HUMO a stratum is one similarity-ordered
/// unit subset D_i.
struct Stratum {
  /// Population size of the stratum (n_i, number of pairs in the subset).
  size_t population = 0;
  /// Number of sampled units (s_i <= n_i).
  size_t sample_size = 0;
  /// Number of sampled units that are positive (matches).
  size_t sample_positives = 0;

  /// Observed match proportion p_i = sample_positives / sample_size
  /// (0 when nothing sampled).
  double proportion() const;

  /// Estimated variance of the proportion estimator with finite population
  /// correction (Cochran 1977, eq. 5.7):
  ///   var(p_i) = (1 - s_i/n_i) * p_i (1 - p_i) / (s_i - 1).
  /// Returns 0 when s_i < 2 would make it undefined but the stratum is fully
  /// enumerated; returns a conservative worst-case (0.25) when s_i < 2 and
  /// the stratum is not fully enumerated.
  double proportion_variance() const;

  /// True if every unit was inspected (no sampling error).
  bool fully_enumerated() const { return sample_size >= population; }
};

}  // namespace humo::stats
