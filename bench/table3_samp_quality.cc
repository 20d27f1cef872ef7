// Table III: quality levels achieved by SAMP on DS and AB, with success
// rates over randomized runs. Shape to hold: averaged quality above the
// requirement and success rate >= theta (0.9) — typically far above.

#include "bench_common.h"

using namespace humo;

int main() {
  bench::PrintHeader(
      "Table III — quality levels achieved by SAMP on DS and AB",
      "Chen et al., ICDE 2018, Table III");
  const data::Workload ds = data::SimulatePairs(data::DsConfig());
  const data::Workload ab = data::SimulatePairs(data::AbConfig());
  core::SubsetPartition pds(&ds, 200), pab(&ab, 200);

  eval::Table table({"Requirement", "DS precision", "DS recall",
                     "AB precision", "AB recall", "DS success", "AB success"});
  for (double level : {0.70, 0.75, 0.80, 0.85, 0.90, 0.95}) {
    const core::QualityRequirement req{level, level, 0.9};
    const auto sds = bench::RunSamp(pds, req);
    const auto sab = bench::RunSamp(pab, req);
    table.AddRow({"a=b=" + eval::Fmt(level, 2),
                  eval::Fmt(sds.mean_precision), eval::Fmt(sds.mean_recall),
                  eval::Fmt(sab.mean_precision), eval::Fmt(sab.mean_recall),
                  eval::FmtPercent(sds.success_rate, 0),
                  eval::FmtPercent(sab.success_rate, 0)});
  }
  table.Print();
  std::printf("\npaper: success rates 96-100; averaged quality above the "
              "requirement in all cells (%zu trials here; paper used 100)\n",
              bench::kTrials);
  return 0;
}
