#pragma once

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/risk_model.h"
#include "core/solution.h"

namespace humo::core {

/// Pairs inspected per priority-queue pop; the certification bounds are
/// re-estimated after every batch. Smaller batches track the risk ordering
/// more closely at the price of more bound re-estimations.
inline constexpr size_t kRiskBatchPairs = 64;

/// Seed of the within-subset inspection order (Rng::Stream(seed, subset));
/// independent of the sampling seed so the two phases stay decoupled.
inline constexpr uint64_t kRiskOrderSeed = 11;

/// Options of the risk-aware search.
struct RiskAwareOptions {
  /// Configuration of the initial partial-sampling run that produces the DH
  /// range and the GP model (S0, reused from the context when an earlier
  /// SAMP run already certified the same requirement). The risk
  /// certification applies the same kQualityMargin to alpha/beta.
  PartialSamplingOptions sampling;
};

/// How much human work the risk loop did and avoided.
struct RiskInspectionStats {
  /// DH pairs the certification loop sent to the oracle.
  size_t pairs_inspected = 0;
  /// DH pairs left machine-labeled when the loop stopped — the inspections
  /// HUMO/SAMP would have paid for that RISK did not.
  size_t pairs_machine_labeled = 0;
  /// Priority-queue pops (= bound re-estimations beyond the initial one).
  size_t batches = 0;
  /// Distinct subsets the loop drew at least one batch from.
  size_t subsets_touched = 0;
};

/// Everything a risk-aware run produces: the inherited DH range, the final
/// labeling with cost accounting, and the certificate the loop stopped on.
struct RiskAwareOutcome {
  /// DH range inherited from S0.
  HumoSolution solution;
  /// Final labels over the whole workload plus human-cost accounting;
  /// uninspected DH pairs carry their subset's machine label.
  ResolutionResult resolution;
  RiskInspectionStats inspection;
  /// Certified lower bounds at stop time (confidence sqrt(theta) each, the
  /// paper's Theorem-2 convention).
  double precision_lb = 0.0;
  double recall_lb = 0.0;
  /// True when both bounds reached the (margin-adjusted) targets. False
  /// when DH ran out of pairs first, or when the potential certificate
  /// showed certification unreachable inside the range (the fast-fail).
  /// Resolve() never returns a partially machine-labeled uncertified
  /// result: it falls back to full DH inspection, so its labeling then
  /// equals the full-inspection SAMP labeling and quality matches SAMP's.
  bool certified = false;
};

/// RISK: risk-aware inspection ordering inside DH (the r-HUMO follow-up,
/// Hou et al.). HUMO's optimizers spend the human budget on WHOLE subsets;
/// RISK keeps SAMP's D-/DH/D+ split and GP bounds but replaces the
/// wholesale DH verification of ApplySolution with a priority queue of
/// individual pairs ordered by posterior misclassification risk
/// (RiskModel). After each inspected batch the precision/recall bounds are
/// re-estimated incrementally — GpRangeAccumulators over D+/D-, closed-form
/// Beta/GP aggregation over the partially inspected DH — and the loop stops
/// the moment both certify, leaving the low-risk remainder of DH
/// machine-labeled. Same guarantee as SAMP at equal confidence, measurably
/// fewer oracle inspections (tracked by CacheStats and the oracle's request
/// counters; see tests/core/risk_aware_optimizer_test.cc and bench_paper's
/// RISK rows, which gate RISK cost <= SAMP cost on the full DS/AB presets).
class RiskAwareOptimizer {
 public:
  explicit RiskAwareOptimizer(RiskAwareOptions options = {})
      : options_(options) {}

  /// Runs S0 (partial sampling) against the shared context — reusing a
  /// stored outcome certifying the same requirement, like HYBR — then the
  /// risk-ordered certification loop inside S0's DH. Unlike the other
  /// optimizers this returns the final LABELING, not just a solution:
  /// applying ApplySolution afterwards would inspect the machine-labeled
  /// remainder and forfeit the savings. Should the loop stop uncertified
  /// (exhausted or hopeless range), the whole DH is inspected instead —
  /// the result then equals SAMP's full-inspection labeling at SAMP's
  /// cost, never less reliable than it.
  Result<RiskAwareOutcome> Resolve(EstimationContext* ctx,
                                   const QualityRequirement& req) const;

  /// Convenience entry point with a private, throwaway context.
  Result<RiskAwareOutcome> Resolve(const SubsetPartition& partition,
                                   const QualityRequirement& req,
                                   Oracle* oracle) const;

 private:
  RiskAwareOptions options_;
};

}  // namespace humo::core
