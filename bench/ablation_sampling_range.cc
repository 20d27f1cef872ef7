// Ablation: the sampling-cost range [p_l, p_u] of the partial-sampling
// search (the paper suggests [1%, 5%]). Too little sampling leaves the GP
// uncertain over unsampled subsets — the Eq. 20 bounds then widen and DH
// balloons; past a point, extra sampling only adds cost.

#include "bench_common.h"

using namespace humo;

int main() {
  bench::PrintHeader("Ablation — sampling fraction range [p_l, p_u]",
                     "design choice, §VI-B / docs/ARCHITECTURE.md");
  const data::Workload ds = data::SimulatePairs(data::DsConfig());
  core::SubsetPartition p(&ds, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  struct Range {
    double lo, hi;
  };
  eval::Table table({"[p_l, p_u]", "sampling+DH cost", "precision", "recall",
                     "success"});
  for (const Range r : {Range{0.005, 0.01}, Range{0.01, 0.05},
                        Range{0.02, 0.04}, Range{0.04, 0.06},
                        Range{0.08, 0.12}}) {
    auto factory = [&](uint64_t seed) -> eval::OptimizerFn {
      return [seed, r](const core::SubsetPartition& part,
                       const core::QualityRequirement& rq, core::Oracle* o) {
        core::PartialSamplingOptions opts;
        opts.seed = seed;
        opts.sample_fraction_lo = r.lo;
        opts.sample_fraction_hi = r.hi;
        return core::PartialSamplingOptimizer(opts).Optimize(part, rq, o);
      };
    };
    const auto s = eval::RunExperiment(p, req, factory, bench::Trials(),
                                       bench::BaseSeed());
    table.AddRow({"[" + eval::FmtPercent(r.lo, 1) + ", " +
                      eval::FmtPercent(r.hi, 1) + "]",
                  eval::FmtPercent(s.mean_cost_fraction),
                  eval::Fmt(s.mean_precision), eval::Fmt(s.mean_recall),
                  eval::FmtPercent(s.success_rate, 0)});
  }
  table.Print();
  std::printf("\nexpected: a cost valley — starved sampling inflates DH, "
              "saturated sampling pays for labels it does not need\n");
  return 0;
}
