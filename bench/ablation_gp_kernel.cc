// Ablation: the GP kernel family used by the partial-sampling search.
// RBF (the default) against Matern 3/2 and 5/2 — rougher kernels carry
// more mid-gap uncertainty, typically costing slightly more DH.

#include "bench_common.h"

using namespace humo;

int main() {
  bench::PrintHeader("Ablation — GP kernel family for SAMP",
                     "design choice, §VI-B / docs/ARCHITECTURE.md");
  const data::Workload ds = data::SimulatePairs(data::DsConfig());
  core::SubsetPartition p(&ds, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  struct Entry {
    const char* name;
    gp::KernelFamily family;
  };
  eval::Table table({"kernel", "cost", "precision", "recall", "success"});
  for (const Entry e : {Entry{"RBF", gp::KernelFamily::kRbf},
                        Entry{"Matern 3/2", gp::KernelFamily::kMatern32},
                        Entry{"Matern 5/2", gp::KernelFamily::kMatern52}}) {
    auto factory = [&](uint64_t seed) -> eval::OptimizerFn {
      return [seed, e](const core::SubsetPartition& part,
                       const core::QualityRequirement& rq, core::Oracle* o) {
        core::PartialSamplingOptions opts;
        opts.seed = seed;
        opts.kernel_family = e.family;
        return core::PartialSamplingOptimizer(opts).Optimize(part, rq, o);
      };
    };
    const auto s = eval::RunExperiment(p, req, factory, bench::kTrials,
                                       bench::kBaseSeed);
    table.AddRow({e.name, eval::FmtPercent(s.mean_cost_fraction),
                  eval::Fmt(s.mean_precision), eval::Fmt(s.mean_recall),
                  eval::FmtPercent(s.success_rate, 0)});
  }
  table.Print();
  return 0;
}
