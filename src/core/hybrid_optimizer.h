#pragma once

#include <cstddef>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/risk_aware_optimizer.h"
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
  /// subset SAMP enumerated is served from the SubsetStatsCache.
  Result<HumoSolution> Optimize(EstimationContext* ctx,
                                const QualityRequirement& req) const;

  /// Convenience entry point with a private, throwaway context.
  Result<HumoSolution> Optimize(const SubsetPartition& partition,
                                const QualityRequirement& req,
                                Oracle* oracle) const;

  /// HYBR with risk-ordered inspection inside its selected subsets. Like
  /// Optimize, DH is re-grown outward from the median subset of S0 and
  /// never exceeds S0's range — but no subset is labeled wholesale.
  /// Instead the range first grows, without any inspection, until its
  /// POTENTIAL certificate (CertifyRangePotential: the bounds full
  /// inspection could at best reach) meets the requirement, and then the
  /// shared risk certification loop (RiskAwareOptimizer::ResolveWithin)
  /// inspects the selected subsets' pairs in risk order until the actual
  /// bounds certify. A range that exhausts uncertified is grown toward the
  /// failing requirement and re-certified — nothing already inspected is
  /// wasted, the evidence persists in the oracle's memory.
  /// `risk_options.sampling` is ignored: S0 and the margins come from this
  /// optimizer's own options_.sampling; only the batch size and
  /// inspection-order seed are consumed. The returned inspection stats
  /// aggregate pairs_inspected/batches across certification attempts;
  /// subsets_touched covers the final attempt.
  Result<RiskAwareOutcome> OptimizeRiskAware(
      EstimationContext* ctx, const QualityRequirement& req,
      const RiskAwareOptions& risk_options = {}) const;

  /// Risk-ordered variant with a private, throwaway context.
  Result<RiskAwareOutcome> OptimizeRiskAware(
      const SubsetPartition& partition, const QualityRequirement& req,
      Oracle* oracle, const RiskAwareOptions& risk_options = {}) const;

 private:
  HybridOptions options_;
};

}  // namespace humo::core
