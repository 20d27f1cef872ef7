// Ablation: the unit subset size (the paper fixes 200 pairs per subset).
// Smaller subsets give finer DH boundaries but noisier per-subset
// proportions and more subsets to sample; larger subsets are coarser but
// cheaper to model. Run on simulated DS at (0.9, 0.9, 0.9).

#include "bench_common.h"

using namespace humo;

int main() {
  bench::PrintHeader("Ablation — unit subset size (paper default: 200)",
                     "design choice, docs/ARCHITECTURE.md");
  const data::Workload ds = data::SimulatePairs(data::DsConfig());
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  eval::Table table({"subset size", "HYBR cost", "precision", "recall",
                     "success"});
  for (size_t size : {50ul, 100ul, 200ul, 400ul, 800ul}) {
    core::SubsetPartition p(&ds, size);
    const auto hybr = bench::RunHybr(p, req);
    table.AddRow({std::to_string(size),
                  eval::FmtPercent(hybr.mean_cost_fraction),
                  eval::Fmt(hybr.mean_precision), eval::Fmt(hybr.mean_recall),
                  eval::FmtPercent(hybr.success_rate, 0)});
  }
  table.Print();
  std::printf("\nexpected: mid-size subsets (the paper's 200) balance "
              "boundary granularity against sampling overhead\n");
  return 0;
}
