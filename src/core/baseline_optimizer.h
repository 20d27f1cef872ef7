#pragma once

#include <cstddef>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/oracle.h"
#include "core/partition.h"
#include "core/solution.h"

namespace humo::core {

/// Estimation window of the monotonicity bounds (BASE, and the BASE side of
/// HYBR): the match-proportion bounds of D+ / D- are taken from the average
/// observed proportion of this many consecutive freshly-labeled subsets
/// (the paper recommends 3..10; larger = more conservative).
inline constexpr size_t kWindowSubsets = 5;

/// BASE: purely monotonicity-based search (§V).
///
/// Starting from a medium subset — the one containing the midpoint of the
/// similarity support, "an initial medium similarity value (e.g. the
/// boundary value of a classifier or simply a median value)" (§V) — DH is
/// alternately extended one subset rightward and leftward. Every subset
/// absorbed into DH is human-labeled through the oracle. The upper bound
/// freezes once the last `window` labeled subsets on the upper side have an
/// observed match proportion reaching the Eq. 7 threshold (monotonicity
/// then guarantees D+ is at least as pure). The lower bound freezes once
/// the last `window` labeled subsets on the lower side fall to the Eq. 9
/// threshold. Under monotonicity the returned solution meets alpha/beta
/// with certainty (Theorem 1); theta is not consumed.
class BaselineOptimizer {
 public:
  /// Runs the search against a shared estimation context: subsets already
  /// labeled there (by any earlier optimizer run) are served from the cache
  /// without re-asking the oracle.
  Result<HumoSolution> Optimize(EstimationContext* ctx,
                                const QualityRequirement& req) const;

  /// Convenience entry point with a private, throwaway context. The oracle
  /// accumulates the cost of every subset DH absorbed (labels are needed to
  /// compute observed proportions).
  Result<HumoSolution> Optimize(const SubsetPartition& partition,
                                const QualityRequirement& req,
                                Oracle* oracle) const;
};

}  // namespace humo::core
