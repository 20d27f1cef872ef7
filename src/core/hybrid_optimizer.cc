#include "core/hybrid_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "stats/distributions.h"

namespace humo::core {
namespace {

/// Risk mode (OptimizeRiskAware) only: an S0 subset adjacent to the selected
/// range whose GP-posterior proportion half-width (at the run's confidence)
/// exceeds this is absorbed into DH rather than left in D+/D-, where its
/// bound penalty would be immovable — inspection is confined to DH, so one
/// wide edge subset left outside costs more compensating inspections inside
/// than absorbing it does.
constexpr double kRiskEdgeUncertainty = 0.02;

}  // namespace

Result<HumoSolution> HybridOptimizer::Optimize(const SubsetPartition& partition,
                                               const QualityRequirement& req,
                                               Oracle* oracle) const {
  if (oracle == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  EstimationContext ctx(&partition, oracle);
  return Optimize(&ctx, req);
}

Result<HumoSolution> HybridOptimizer::Optimize(
    EstimationContext* ctx, const QualityRequirement& req) const {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  if (ctx->oracle() == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  const SubsetPartition& partition = ctx->partition();
  const size_t m = partition.num_subsets();
  if (m == 0) return Status::InvalidArgument("empty workload");
  if (options_.window_subsets == 0)
    return Status::InvalidArgument("window_subsets must be positive");

  // ---- Step 1: initial partial-sampling solution S0. ----
  // Reuse the outcome an earlier SAMP run published into the context when
  // it certified the same requirement; otherwise run SAMP here (which
  // publishes its outcome as a side effect). Reuse is the whole point of
  // the shared engine: the GP model, the strata, and every human label
  // behind them carry over at zero additional oracle cost.
  HUMO_ASSIGN_OR_RETURN(std::shared_ptr<const PartialSamplingOutcome> s0,
                        EnsureSamplingOutcome(ctx, req, options_.sampling));
  const size_t i0 = s0->solution.h_lo;
  const size_t j0 = s0->solution.h_hi;
  const double conf = std::sqrt(req.theta);
  // Same discretization-guard margin the sampling search applies: DH moves
  // in whole subsets, so certify a hair above the target.
  const double alpha = std::min(1.0, req.alpha + kQualityMargin);
  const double beta = std::min(1.0, req.beta + kQualityMargin);

  // ---- Step 2: re-extend DH from the median subset of [i0, j0]. ----
  const size_t mid = i0 + (j0 - i0) / 2;
  size_t lo = mid, hi = mid;
  size_t dh_matches = ctx->LabelSubset(mid);

  // GP accumulators for D+ = [hi+1, m-1] and D- = [0, lo-1].
  GpRangeAccumulator dplus(s0->model.get()), dminus(s0->model.get());
  if (hi + 1 < m) dplus.SetRange(hi + 1, m - 1);
  if (lo > 0) dminus.SetRange(0, lo - 1);

  const size_t w = options_.window_subsets;

  // Precision check with exact DH knowledge (every DH subset is labeled):
  //   precision >= (dh_matches + lb(n+_{D+})) / (dh_matches + |D+|).
  // The D+ match-count lower bound is the better (larger) of:
  //   BASE:  |D+| * R(I+ window)     (monotonicity of precision)
  //   SAMP:  GP posterior lower bound at confidence sqrt(theta).
  auto precision_ok = [&]() {
    if (hi + 1 >= m) return true;  // D+ empty
    const double n_dp =
        static_cast<double>(partition.PairsInRange(hi + 1, m - 1));
    const double lb_base = n_dp * ctx->UpperWindowProportion(lo, hi, w);
    const double lb_samp = dplus.LowerBound(conf);
    const double lb = std::max(lb_base, lb_samp);
    const double dh = static_cast<double>(dh_matches);
    const double denom = dh + n_dp;
    if (denom <= 0.0) return true;
    return alpha <= (dh + lb) / denom;
  };

  // Recall check:
  //   recall >= (dh_matches + lb(n+_{D+})) /
  //             (dh_matches + lb(n+_{D+}) + ub(n+_{D-})),
  // with the D- upper bound the better (smaller) of BASE's monotone window
  // bound and SAMP's GP bound.
  auto recall_ok = [&]() {
    if (lo == 0) return true;  // D- empty
    const double n_dm = static_cast<double>(partition.PairsInRange(0, lo - 1));
    const double ub_base = n_dm * ctx->LowerWindowProportion(lo, hi, w);
    const double ub_samp = dminus.UpperBound(conf);
    const double ub = std::min(ub_base, ub_samp);
    const double n_dp_lb =
        hi + 1 >= m
            ? 0.0
            : std::max(dplus.LowerBound(conf),
                       static_cast<double>(
                           partition.PairsInRange(hi + 1, m - 1)) *
                           ctx->UpperWindowProportion(lo, hi, w));
    const double found = static_cast<double>(dh_matches) + n_dp_lb;
    const double denom = found + ub;
    if (denom <= 0.0) return true;
    return beta <= found / denom;
  };

  bool precision_fixed = precision_ok();
  bool recall_fixed = recall_ok();

  // ---- Step 3: alternate extension, never exceeding [i0, j0]. ----
  while (!precision_fixed || !recall_fixed) {
    bool moved = false;
    if (!precision_fixed) {
      if (hi < j0) {
        ++hi;
        dh_matches += ctx->LabelSubset(hi);
        dplus.ShrinkLeft();  // subset hi moved from D+ into DH
        moved = true;
        precision_fixed = precision_ok();
      } else {
        // At S0's upper bound: S0 certified precision with DH up to j0.
        precision_fixed = true;
      }
    }
    if (!recall_fixed) {
      if (lo > i0) {
        --lo;
        dh_matches += ctx->LabelSubset(lo);
        dminus.ShrinkRight();  // subset lo moved from D- into DH
        moved = true;
        recall_fixed = recall_ok();
      } else {
        recall_fixed = true;
      }
      // Growing DH can only help precision, but re-verify when it was
      // accepted by a threshold estimate.
      if (precision_fixed && hi < j0 && !precision_ok()) {
        precision_fixed = false;
      }
    }
    if (!moved) break;
  }

  HumoSolution sol;
  sol.h_lo = lo;
  sol.h_hi = hi;
  sol.empty = false;
  return sol;
}

Result<RiskAwareOutcome> HybridOptimizer::OptimizeRiskAware(
    const SubsetPartition& partition, const QualityRequirement& req,
    Oracle* oracle, const RiskAwareOptions& risk_options) const {
  if (oracle == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  EstimationContext ctx(&partition, oracle);
  return OptimizeRiskAware(&ctx, req, risk_options);
}

Result<RiskAwareOutcome> HybridOptimizer::OptimizeRiskAware(
    EstimationContext* ctx, const QualityRequirement& req,
    const RiskAwareOptions& risk_options) const {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  if (ctx->oracle() == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  const SubsetPartition& partition = ctx->partition();
  Oracle* oracle = ctx->oracle();
  const size_t m = partition.num_subsets();
  if (m == 0) return Status::InvalidArgument("empty workload");
  if (risk_options.batch_pairs == 0)
    return Status::InvalidArgument("batch_pairs must be positive");

  // ---- Step 1: initial partial-sampling solution S0 (same reuse rule as
  // Optimize). ----
  HUMO_ASSIGN_OR_RETURN(std::shared_ptr<const PartialSamplingOutcome> s0,
                        EnsureSamplingOutcome(ctx, req, options_.sampling));
  const GpSubsetModel* model = s0->model.get();
  const size_t i0 = s0->solution.h_lo;
  const size_t j0 = s0->solution.h_hi;
  const double conf = std::sqrt(req.theta);
  const double alpha = std::min(1.0, req.alpha + kQualityMargin);
  const double beta = std::min(1.0, req.beta + kQualityMargin);

  // ---- Step 2: grow the range from S0's median subset until its POTENTIAL
  // certificate passes — without inspecting anything. The potential is the
  // bound full inspection could at best reach (uninspected pairs resolving
  // to their posterior means); while it misses a target, no amount of human
  // work inside the range can certify it, so grow toward the failing
  // requirement exactly like Optimize's re-extension (precision -> right,
  // recall -> left), never exceeding [i0, j0].
  RiskModel risk(model, i0, j0);
  SeedRiskEvidence(partition, *oracle, &risk);

  const size_t mid = i0 + (j0 - i0) / 2;
  size_t lo = mid, hi = mid;
  GpRangeAccumulator dplus(model), dminus(model);
  if (hi + 1 < m) dplus.SetRange(hi + 1, m - 1);
  if (lo > 0) dminus.SetRange(0, lo - 1);
  // Grow until the potential clears the targets with an extra margin: a
  // range that would only JUST certify at full inspection has no slack for
  // stopping early, so the certification loop would grind most of its pairs
  // anyway — an edge subset left under a weak GP bound in D+/D- costs more
  // inspections to compensate for than absorbing it into DH does.
  const double grow_margin = kQualityMargin;
  while (true) {
    const RiskCertificate potential =
        CertifyRangePotential(risk, lo, hi, dplus, dminus, conf);
    bool grew = false;
    if (potential.precision_lb < std::min(1.0, alpha + grow_margin) &&
        hi < j0) {
      ++hi;
      dplus.ShrinkLeft();  // subset hi moved from D+ into DH
      grew = true;
    }
    if (potential.recall_lb < std::min(1.0, beta + grow_margin) && lo > i0) {
      --lo;
      dminus.ShrinkRight();  // subset lo moved from D- into DH
      grew = true;
    }
    if (!grew) break;
  }
  // Absorb edge subsets whose GP-posterior proportion is still wide: left
  // in D+/D- their bound penalty is immovable (inspection is confined to
  // DH), and compensating for one wide edge subset costs far more
  // inspections elsewhere than the at-most-one-subset cost of absorbing it
  // and letting the risk loop decide whether it even needs inspecting.
  const double z = stats::NormalTwoSidedCritical(conf);
  while (hi < j0 &&
         z * std::sqrt(model->PosteriorVariance(hi + 1)) >
             kRiskEdgeUncertainty) {
    ++hi;
    dplus.ShrinkLeft();
  }
  while (lo > i0 &&
         z * std::sqrt(model->PosteriorVariance(lo - 1)) >
             kRiskEdgeUncertainty) {
    --lo;
    dminus.ShrinkRight();
  }

  // ---- Step 3: risk-ordered certification inside the selected range,
  // re-growing on demand. The potential is slightly optimistic (it ignores
  // the residual uncertainty the actual bounds must carry), so a range can
  // exhaust its pairs uncertified; it is then grown toward the failing
  // requirement and re-certified. Nothing is wasted across attempts —
  // every inspected pair stays inside the final DH and its answer persists
  // in the oracle's memory, so the next attempt starts from it for free.
  RiskAwareOptions ropts = risk_options;
  ropts.sampling = options_.sampling;  // keep margins consistent with S0
  const RiskAwareOptimizer resolver(ropts);
  size_t total_pairs = 0, total_batches = 0;
  while (true) {
    HumoSolution selected;
    selected.h_lo = lo;
    selected.h_hi = hi;
    selected.empty = false;
    HUMO_ASSIGN_OR_RETURN(RiskAwareOutcome out,
                          resolver.ResolveWithin(ctx, req, selected, model));
    total_pairs += out.inspection.pairs_inspected;
    total_batches += out.inspection.batches;
    bool grew = false;
    if (!out.certified) {
      // Exponential growth toward the failing side: each failed attempt
      // doubles the distance already grown from the median, so the number
      // of re-certification attempts is logarithmic in the final width
      // (each aborted attempt fast-fails on its potential, see
      // ResolveWithin, so re-tries are cheap).
      if (out.precision_lb < alpha && hi < j0) {
        hi = std::min(j0, hi + std::max<size_t>(1, hi - mid));
        grew = true;
      }
      if (out.recall_lb < beta && lo > i0) {
        lo = std::max(
            i0, lo - std::min(lo - i0, std::max<size_t>(1, mid - lo)));
        grew = true;
      }
      if (!grew && (hi < j0 || lo > i0)) {
        // The failing side is clamped; growing the other one still tightens
        // the certificate (more exact evidence, smaller machine-labeled
        // remainder) and guarantees progress toward [i0, j0].
        if (hi < j0) ++hi; else --lo;
        grew = true;
      }
    }
    if (!grew) {
      out.inspection.pairs_inspected = total_pairs;
      out.inspection.batches = total_batches;
      return out;
    }
  }
}

}  // namespace humo::core
