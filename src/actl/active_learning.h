#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/oracle.h"
#include "core/partition.h"

namespace humo::actl {

/// Options of the ACTL comparator.
struct ActlOptions {
  /// Labels drawn per threshold probe when estimating the precision of the
  /// region above the probe threshold.
  size_t samples_per_probe = 100;
  uint64_t seed = 17;
};

/// Result of an ACTL run: the similarity threshold (as a subset index —
/// every pair in subsets >= `threshold_subset` is labeled match), the final
/// labeling, and the human cost spent on precision estimation.
struct ActlResult {
  size_t threshold_subset = 0;
  std::vector<int> labels;
  size_t human_cost = 0;
  double human_cost_fraction = 0.0;
};

/// State-of-the-art comparator (§VIII-C): active-learning style
/// precision-constrained recall maximization in the spirit of Arasu et al.
/// (SIGMOD'10) / Bellare et al. (KDD'12).
///
/// The classifier family is the monotone threshold family over the machine
/// metric: label match iff similarity >= v. The search walks the threshold
/// down from the top subset, at each step estimating the precision of the
/// would-be match region by sampling it (Wilson lower bound at confidence
/// 0.9); it stops before the certificate drops below the target precision,
/// thereby maximizing recall subject to the precision constraint. Unlike
/// HUMO it offers NO recall guarantee — the comparison axis of Tables V/VI
/// and Fig. 11.
class ActiveLearningResolver {
 public:
  explicit ActiveLearningResolver(ActlOptions options = {})
      : options_(options) {}

  Result<ActlResult> Resolve(const core::SubsetPartition& partition,
                             double target_precision,
                             core::Oracle* oracle) const;

 private:
  ActlOptions options_;
};

}  // namespace humo::actl
