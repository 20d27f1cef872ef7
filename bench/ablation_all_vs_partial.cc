// Ablation: all-sampling (§VI-A) vs partial-sampling (§VI-B). The paper
// relegates this comparison to its technical report, stating the
// all-sampling variant performs worse (its per-subset sampling cost is
// prohibitive at full coverage). With per-pair accounting, all-sampling's
// cost is samples-per-subset * m; partial-sampling concentrates the budget.

#include "bench_common.h"

using namespace humo;

int main() {
  bench::PrintHeader("Ablation — all-sampling vs partial-sampling",
                     "§VI-A vs §VI-B (paper: technical report)");
  const data::Workload ds = data::SimulatePairs(data::DsConfig());
  core::SubsetPartition p(&ds, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  eval::Table table({"variant", "cost", "precision", "recall", "success"});
  for (size_t sps : {10ul, 20ul, 50ul}) {
    auto factory = [&](uint64_t seed) -> eval::OptimizerFn {
      return [seed, sps](const core::SubsetPartition& part,
                         const core::QualityRequirement& rq, core::Oracle* o) {
        core::AllSamplingOptions opts;
        opts.seed = seed;
        opts.samples_per_subset = sps;
        return core::AllSamplingOptimizer(opts).Optimize(part, rq, o);
      };
    };
    const auto s = eval::RunExperiment(p, req, factory, bench::kTrials,
                                       bench::kBaseSeed);
    table.AddRow({"ALL (s=" + std::to_string(sps) + "/subset)",
                  eval::FmtPercent(s.mean_cost_fraction),
                  eval::Fmt(s.mean_precision), eval::Fmt(s.mean_recall),
                  eval::FmtPercent(s.success_rate, 0)});
  }
  {
    const auto s = bench::RunSamp(p, req);
    table.AddRow({"PARTIAL (default)",
                  eval::FmtPercent(s.mean_cost_fraction),
                  eval::Fmt(s.mean_precision), eval::Fmt(s.mean_recall),
                  eval::FmtPercent(s.success_rate, 0)});
  }
  table.Print();
  std::printf("\npaper: the all-sampling solution performs worse than "
              "partial sampling, motivating Algorithm 1\n");

  // Engine-reuse dimension: ALL layered on a PARTIAL run over one shared
  // EstimationContext. The strata PARTIAL already paid for are served from
  // the cache, so ALL's marginal sampling cost collapses compared to the
  // standalone rows above.
  std::printf("\n-- engine reuse: ALL after PARTIAL on a shared context --\n");
  {
    core::Oracle oracle(&ds);
    core::EstimationContext ctx(&p, &oracle);
    core::PartialSamplingOptions popts;
    popts.seed = bench::kBaseSeed;
    auto s0 = core::PartialSamplingOptimizer(popts).Optimize(&ctx, req);
    const size_t partial_cost = oracle.cost();
    core::AllSamplingOptions aopts;
    aopts.seed = bench::kBaseSeed;
    aopts.samples_per_subset = 20;
    auto s1 = core::AllSamplingOptimizer(aopts).Optimize(&ctx, req);
    const size_t marginal = oracle.cost() - partial_cost;
    std::printf("PARTIAL cost: %zu pairs (%s); ALL marginal cost on shared "
                "engine: %zu pairs (standalone: ~%zu); duplicate oracle "
                "requests: %zu\n",
                partial_cost,
                eval::FmtPercent(oracle.CostFraction()).c_str(), marginal,
                aopts.samples_per_subset * p.num_subsets(),
                oracle.duplicate_requests());
    if (s0.ok() && s1.ok()) {
      std::printf("PARTIAL DH=[%zu,%zu]; ALL-on-shared DH=[%zu,%zu]\n",
                  s0->h_lo, s0->h_hi, s1->h_lo, s1->h_hi);
    }
  }
  return 0;
}
