#include "core/baseline_optimizer.h"

#include <cassert>

namespace humo::core {

Result<HumoSolution> BaselineOptimizer::Optimize(
    const SubsetPartition& partition, const QualityRequirement& req,
    Oracle* oracle) const {
  if (oracle == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  EstimationContext ctx(&partition, oracle);
  return Optimize(&ctx, req);
}

Result<HumoSolution> BaselineOptimizer::Optimize(
    EstimationContext* ctx, const QualityRequirement& req) const {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  if (ctx->oracle() == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  const SubsetPartition& partition = ctx->partition();
  const size_t m = partition.num_subsets();
  if (m == 0) return Status::InvalidArgument("empty workload");
  HUMO_RETURN_NOT_OK(ValidateRequirement(req));

  // Start at the subset containing the midpoint similarity value. On
  // post-blocking workloads the midpoint of the similarity range sits near
  // the match/unmatch transition, which is what a classifier boundary would
  // give; the *pair-count* median would instead land deep inside the
  // unmatch bulk and force a long, expensive walk.
  const auto& workload = partition.workload();
  const double mid = 0.5 * (workload[0].similarity +
                            workload[workload.size() - 1].similarity);
  size_t start = m / 2;
  for (size_t k = 0; k < m; ++k) {
    if (partition[k].avg_similarity >= mid) {
      start = k;
      break;
    }
  }

  // DH = [lo, hi] inclusive; per-subset observed match counts live in the
  // context's strata (so a later optimizer run — or a re-run with a
  // stronger requirement — reuses them without oracle traffic). All DH
  // pairs get human labels, so R(DH) is known exactly.
  size_t lo = start, hi = start;
  size_t dh_matches = ctx->LabelSubset(start);

  bool precision_fixed = (hi + 1 >= m);  // no D+ -> precision vacuous
  bool recall_fixed = (lo == 0);         // no D- -> recall constraint vacuous

  // Eq. 7 windows are capped both by subset count and by pair count (the
  // final subset absorbs the partition remainder, so w subsets can hold
  // more than w * subset_size pairs).
  const size_t w = kWindowSubsets;
  const size_t window_pair_cap = w * partition.subset_size();

  // Eq. 7: upper bound freezes when R(I+) >= (alpha*|D+| - (1-alpha)*
  //        R(DH)*|DH|) / |D+|.
  auto precision_satisfied = [&]() {
    if (hi + 1 >= m) return true;  // D+ empty
    const double d_plus =
        static_cast<double>(partition.PairsInRange(hi + 1, m - 1));
    const double r_dh_weighted = static_cast<double>(dh_matches);
    const double threshold =
        (req.alpha * d_plus - (1.0 - req.alpha) * r_dh_weighted) / d_plus;
    return ctx->UpperWindowProportion(lo, hi, w, window_pair_cap) >= threshold;
  };

  // Eq. 9: lower bound freezes when R(I-) <= (1-beta)(|DH| R(DH) +
  //        |D+| R(I+)) / (beta |D-|).
  auto recall_satisfied = [&]() {
    if (lo == 0) return true;  // D- empty
    const double d_minus =
        static_cast<double>(partition.PairsInRange(0, lo - 1));
    const double d_plus_matches =
        hi + 1 >= m
            ? 0.0
            : static_cast<double>(partition.PairsInRange(hi + 1, m - 1)) *
                  ctx->UpperWindowProportion(lo, hi, w, window_pair_cap);
    const double labeled_matches =
        static_cast<double>(dh_matches) + d_plus_matches;
    const double threshold =
        (1.0 - req.beta) * labeled_matches / (req.beta * d_minus);
    return ctx->LowerWindowProportion(lo, hi, w, window_pair_cap) <= threshold;
  };

  precision_fixed = precision_fixed || precision_satisfied();
  recall_fixed = recall_fixed || recall_satisfied();

  // Alternate extension until both constraints hold.
  while (!precision_fixed || !recall_fixed) {
    bool moved = false;
    if (!precision_fixed) {
      if (hi + 1 < m) {
        ++hi;
        dh_matches += ctx->LabelSubset(hi);
        moved = true;
      }
      precision_fixed = (hi + 1 >= m) || precision_satisfied();
    }
    if (!recall_fixed) {
      if (lo > 0) {
        --lo;
        dh_matches += ctx->LabelSubset(lo);
        moved = true;
      }
      recall_fixed = (lo == 0) || recall_satisfied();
      // Extending DH downward changes |DH| R(DH); re-check precision with
      // the frozen upper bound (it can only improve, per §V, but verify
      // defensively when it was satisfied by threshold rather than
      // vacuously).
      if (precision_fixed && hi + 1 < m && !precision_satisfied()) {
        precision_fixed = false;
      }
    }
    if (!moved) break;  // both bounds at the extremes
  }

  HumoSolution sol;
  sol.h_lo = lo;
  sol.h_hi = hi;
  sol.empty = false;
  return sol;
}

}  // namespace humo::core
