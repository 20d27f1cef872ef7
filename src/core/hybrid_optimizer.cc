#include "core/hybrid_optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/baseline_optimizer.h"

namespace humo::core {

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
  HUMO_RETURN_NOT_OK(ValidateRequirement(req));

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

  const size_t w = kWindowSubsets;

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

}  // namespace humo::core
