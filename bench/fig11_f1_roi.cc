// Fig. 11: the percentage of manual work HUMO pays for a 1% absolute F1
// improvement over ACTL, as a function of the target precision, on both
// datasets. Shape to hold: small values (fractions of a percent) rising
// with the target precision.

#include "bench_common.h"

using namespace humo;

namespace {

void RunDataset(const char* name, const data::Workload& w,
                eval::Table* table) {
  core::SubsetPartition p(&w, 200);
  for (double target : {0.75, 0.80, 0.85, 0.90, 0.95}) {
    const core::QualityRequirement req{target, target, 0.9};
    const auto humo_summary = bench::RunHybr(p, req);

    core::Oracle oracle(&w);
    actl::ActlOptions opts;
    opts.seed = bench::kBaseSeed;
    const auto actl_result =
        actl::ActiveLearningResolver(opts).Resolve(p, target, &oracle);
    double actl_f1 = 0.0, actl_psi = 0.0;
    if (actl_result.ok()) {
      actl_f1 = eval::QualityOf(w, actl_result->labels).f1;
      actl_psi = actl_result->human_cost_fraction;
    }
    const double df1 = humo_summary.mean_f1 - actl_f1;
    const double dpsi = humo_summary.mean_cost_fraction - actl_psi;
    const double roi = df1 > 1e-9 ? dpsi / (100.0 * df1) : 0.0;
    table->AddRow({name, eval::Fmt(target, 2), eval::Fmt(humo_summary.mean_f1),
                   eval::Fmt(actl_f1), eval::Fmt(roi, 4)});
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 11 — manual work for 1% absolute F1 improvement over ACTL",
      "Chen et al., ICDE 2018, Fig. 11");
  eval::Table table({"Dataset", "Target precision", "HUMO F1", "ACTL F1",
                     "dpsi/(100*dF1)"});
  RunDataset("DS", data::SimulatePairs(data::DsConfig()), &table);
  RunDataset("AB", data::SimulatePairs(data::AbConfig()), &table);
  table.Print();
  std::printf("\npaper: max 0.35%% (DS) and 0.21%% (AB) manual work per 1%% "
              "F1 gain, rising with target precision\n");
  return 0;
}
