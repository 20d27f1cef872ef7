#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/gp_subset_model.h"
#include "core/oracle.h"
#include "core/partition.h"
#include "core/solution.h"
#include "gp/gp_regression.h"
#include "stats/stratified.h"

namespace humo::core {

/// Internal safety margin added to alpha and beta during the bound search.
/// DH moves in whole-subset steps, so the continuous Eq. 13/14 conditions
/// can be satisfied by a solution whose true quality sits a hair under the
/// target (observed misses of ~0.001-0.002); the margin absorbs that
/// discretization error at negligible cost. HYBR and RISK apply it too.
inline constexpr double kQualityMargin = 0.015;

/// Homoscedastic noise floor added on top of the per-subset sampling
/// variance of every GP fit. Kept tiny: fully-enumerated sampled subsets
/// have zero sampling variance, and an artificial floor of variance f
/// inflates every unsampled subset's posterior std by ~sqrt(f/2), which —
/// summed over hundreds of subsets in the Eq. 20 aggregation — dwarfs the
/// real uncertainty and balloons DH. Numerical conditioning is handled by
/// the Cholesky jitter, not this floor.
inline constexpr double kGpNoiseFloor = 1e-8;

/// Options of the partial-sampling search (§VI-B, Algorithm 1).
struct PartialSamplingOptions {
  /// Pairs sampled (and human-labeled) per sampled subset. The paper
  /// measures sampling cost as "the proportion of sampled subsets among all
  /// subsets", i.e. a sampled subset is fully inspected; the default of 200
  /// (the paper's subset size) therefore enumerates sampled subsets
  /// completely, pinning the GP with noise-free observations. Smaller values
  /// trade sampling cost for wider GP error bars.
  size_t samples_per_subset = 200;
  /// Sampling-cost range [p_l, p_u]: fraction of subsets that may be
  /// sampled (the paper uses [1%, 5%]). Defaults place most of the budget
  /// in the equidistant initial pass ([4%, 6%]) because sparse initial
  /// coverage leaves the GP posterior too uncertain over the hundreds of
  /// unsampled subsets, inflating the Eq. 20 bounds and with them DH (see
  /// bench_ablation_sampling_range for the sweep).
  double sample_fraction_lo = 0.04;
  double sample_fraction_hi = 0.06;
  /// Kernel family for the GP fit; hyperparameters are selected on a small
  /// grid by log marginal likelihood.
  gp::KernelFamily kernel_family = gp::KernelFamily::kRbf;
  /// Warm-start acceptance slack for incremental GP refits, in nats per
  /// training point. When a refinement round only appends observations, the
  /// previous winner's Cholesky factor is extended (Cholesky::Append,
  /// O(n^2 k)) and its hyperparameters kept; the full grid is re-run when
  /// the warm model's per-datum log marginal likelihood drops more than
  /// this below the value of the last GRID selection (the baseline is
  /// anchored there — it does not ratchet down with accepted warm rounds)
  /// — i.e. when the new pins disagree with the stale kernel. Smaller
  /// values re-select more eagerly; 0 re-runs the grid on any strict
  /// degradation, though warm rounds whose LML holds or improves are still
  /// served incrementally. -infinity re-selects on the grid every round;
  /// the incremental tests compare against that reference path.
  double gp_warm_lml_slack = 0.25;
  uint64_t seed = 5;
};

/// SAMP (partial-sampling variant, the paper's default): Algorithm 1 trains
/// a Gaussian-process regression of match proportion against subset
/// similarity from a budgeted set of sampled subsets, then the bound search
/// of §VI-A runs against GP-posterior confidence intervals (Eq. 19-21)
/// instead of per-stratum ones.
///
/// The per-subset sampling data and the fitted model are published into the
/// EstimationContext (see PartialSamplingOutcome in estimation_engine.h), so
/// a subsequent HYBR run on the same context starts from them for free.
class PartialSamplingOptimizer {
 public:
  explicit PartialSamplingOptimizer(PartialSamplingOptions options = {})
      : options_(options) {}

  /// Runs Algorithm 1 + the bound search against a shared estimation
  /// context; strata an earlier run already paid for are reused.
  Result<HumoSolution> Optimize(EstimationContext* ctx,
                                const QualityRequirement& req) const;

  /// Convenience entry point with a private, throwaway context.
  Result<HumoSolution> Optimize(const SubsetPartition& partition,
                                const QualityRequirement& req,
                                Oracle* oracle) const;

  /// Like Optimize but also returns the fitted model and sampling data
  /// (consumed by HybridOptimizer). The outcome is additionally stored in
  /// the context for later consumers.
  Result<PartialSamplingOutcome> OptimizeDetailed(
      EstimationContext* ctx, const QualityRequirement& req) const;

  /// Detailed run with a private, throwaway context.
  Result<PartialSamplingOutcome> OptimizeDetailed(
      const SubsetPartition& partition, const QualityRequirement& req,
      Oracle* oracle) const;

  const PartialSamplingOptions& options() const { return options_; }

 private:
  PartialSamplingOptions options_;
};

/// The S0 reuse discipline shared by HYBR and RISK: returns the context's
/// stored partial-sampling outcome when it certified exactly `req`
/// (alpha, beta and theta all equal), otherwise runs a SAMP pass with
/// `options` — which publishes its outcome into the context — and returns
/// that. Never null on success.
Result<std::shared_ptr<const PartialSamplingOutcome>> EnsureSamplingOutcome(
    EstimationContext* ctx, const QualityRequirement& req,
    const PartialSamplingOptions& options);

}  // namespace humo::core
