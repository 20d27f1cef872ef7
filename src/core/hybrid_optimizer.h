#pragma once

#include <cstddef>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/solution.h"

namespace humo::core {

/// Options of the hybrid search (§VII).
struct HybridOptions {
  /// Configuration of the initial partial-sampling run.
  PartialSamplingOptions sampling;
};

/// HYBR: starts from the partial-sampling solution S0 = [i0, j0], resets DH
/// to the median subset of S0 and re-extends it outward, at every step
/// accepting a bound as soon as EITHER the monotonicity-based (BASE) or the
/// GP-sampling-based (SAMP) estimate certifies the corresponding quality
/// requirement — "the better of both worlds". DH never exceeds [i0, j0], so
/// the result costs at most as much as S0 (§VII).
class HybridOptimizer {
 public:
  explicit HybridOptimizer(HybridOptions options = {}) : options_(options) {}

  /// Runs the search against a shared estimation context. When the context
  /// already holds a partial-sampling outcome for the same requirement
  /// (from an earlier SAMP run), the S0 phase is skipped entirely and the
  /// re-extension phase issues zero duplicate oracle inspections — every
  /// subset SAMP enumerated is served from the context's strata.
  Result<HumoSolution> Optimize(EstimationContext* ctx,
                                const QualityRequirement& req) const;

  /// Convenience entry point with a private, throwaway context.
  Result<HumoSolution> Optimize(const SubsetPartition& partition,
                                const QualityRequirement& req,
                                Oracle* oracle) const;

 private:
  HybridOptions options_;
};

}  // namespace humo::core
