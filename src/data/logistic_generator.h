#pragma once

#include <cstdint>

#include "data/workload.h"

namespace humo::data {

/// The paper's synthetic workload generator (§VIII-A, Eq. 22 and Fig. 5).
///
/// Similarity values are laid out uniformly over [0,1] in `num_subsets`
/// equal-size unit subsets. Subset k's match proportion is
///   R(v_k) = 0.95 / (1 + exp(-tau * (v_k - 0.55)))  +  N(0, sigma^2)
/// clamped to [0,1]. tau controls the steepness of the logistic curve
/// (smaller = harder workload); sigma controls the distribution
/// irregularity of the per-subset proportions (larger = harder; at
/// sigma = 0.5 the monotonicity-of-precision assumption no longer holds,
/// which is the Fig. 10 failure regime for BASE/HYBR).
struct LogisticGeneratorOptions {
  size_t num_pairs = 100000;
  size_t pairs_per_subset = 200;
  /// Logistic steepness tau of Eq. 22.
  double tau = 14.0;
  /// Std-dev of the per-subset Gaussian proportion noise.
  double sigma = 0.1;
  /// Ceiling of the logistic curve (the paper fixes 0.95).
  double ceiling = 0.95;
  uint64_t seed = 77;
};

/// Midpoint of the logistic curve (the paper fixes 0.55).
inline constexpr double kLogisticMidpoint = 0.55;

/// Eq. 22: ceiling / (1 + exp(-tau (v - kLogisticMidpoint))).
double LogisticMatchProportion(double v, double tau, double ceiling = 0.95);

/// Generates the synthetic workload.
Workload GenerateLogisticWorkload(const LogisticGeneratorOptions& options);

}  // namespace humo::data
