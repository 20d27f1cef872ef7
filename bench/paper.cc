// bench_paper: the paper's §VIII claims as one gated row table.
//
// Each row of kRows is one distinct cell (preset, optimizer, alpha = beta,
// theta) and names every paper artifact it reproduces, so a cell that
// several figures and tables share runs once. docs/REPRODUCING.md maps each
// artifact to its rows, and says why Figs. 4, 5, 12 and Table I have none.
// The RISK rows carry the risk-ordered inspection of the r-HUMO follow-up
// (arXiv 1803.05714) on the same presets.
//
// Protocol, the same for every row: the calibrated realization of each
// preset (DsConfig(), AbConfig(), or the logistic generator at 100k pairs
// and seed 7), subsets of 200 pairs, and kTrials sampler seeds from
// bench::kBaseSeed for SAMP, HYBR and RISK. BASE is deterministic and ACTL
// runs with seed kBaseSeed, so each runs once. A run that errors counts as
// a miss.
//
// Every row writes runs, met (runs meeting alpha and beta), mean cost
// fraction, precision, recall and F1, plus two gaps the regression gate
// holds as ratchets (a committed gap may only shrink):
//   band_gap   distance of the mean cost outside the paper's Fig. 6 band,
//              [4%, 16%] on DS and [6%, 20%] on AB; 0 on logistic, ACTL
//              and RISK rows, for which the paper gives no band.
//   order_gap  max(0, SAMP cost - BASE cost) on DS/AB SAMP rows, and
//              max(0, ACTL recall - HYBR recall) on ACTL rows; 0 elsewhere.
//
// The bench exits nonzero when either hard gate fails:
//   coverage   eval::CoverageHolds(met, runs, theta) on every row, except
//              BASE and HYBR on the logistic presets with sigma >= 0.3,
//              where the paper reports the monotonicity assumption failing
//              (Fig. 10). Their met counts are still written, and the
//              regression gate pins them.
//   ordering   HYBR cost <= SAMP cost and RISK cost <= SAMP cost in every
//              cell where both run. RISK shares SAMP's sampling phase and
//              can only skip DH inspections, never add any.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

/// Sampler seeds per SAMP/HYBR/RISK cell (the paper averaged 100 runs).
constexpr size_t kTrials = 20;
constexpr size_t kSubsetSize = 200;

enum class Source { kDs, kAb, kLogistic };

struct Preset {
  const char* name;
  Source source;
  double tau = 0.0, sigma = 0.0;  // logistic generator only
  // The paper's Fig. 6 cost band; [0, 1] where the paper gives none.
  double band_lo = 0.0, band_hi = 1.0;
};

constexpr Preset kPresets[] = {
    {"DS", Source::kDs, 0.0, 0.0, 0.04, 0.16},
    {"AB", Source::kAb, 0.0, 0.0, 0.06, 0.20},
    {"LOG_t8_s0.1", Source::kLogistic, 8.0, 0.1},
    {"LOG_t10_s0.1", Source::kLogistic, 10.0, 0.1},
    {"LOG_t12_s0.1", Source::kLogistic, 12.0, 0.1},
    {"LOG_t14_s0.1", Source::kLogistic, 14.0, 0.1},
    {"LOG_t16_s0.1", Source::kLogistic, 16.0, 0.1},
    {"LOG_t18_s0.1", Source::kLogistic, 18.0, 0.1},
    {"LOG_t14_s0.2", Source::kLogistic, 14.0, 0.2},
    {"LOG_t14_s0.3", Source::kLogistic, 14.0, 0.3},
    {"LOG_t14_s0.4", Source::kLogistic, 14.0, 0.4},
    {"LOG_t14_s0.5", Source::kLogistic, 14.0, 0.5},
};

enum class Opt { kBase, kSamp, kHybr, kActl, kRisk };

const char* Name(Opt opt) {
  static const char* const kNames[] = {"BASE", "SAMP", "HYBR", "ACTL",
                                       "RISK"};
  return kNames[static_cast<int>(opt)];
}

struct Row {
  const char* preset;
  Opt optimizer;
  double alpha;  // = beta
  double theta;
  const char* artifacts;
};

// clang-format off
constexpr Row kRows[] = {
    {"DS", Opt::kBase, 0.70, 0.90, "Fig. 6a; Table II"},
    {"DS", Opt::kSamp, 0.70, 0.90, "Fig. 6a; Table III"},
    {"DS", Opt::kHybr, 0.70, 0.90, "Fig. 6a; Table IV"},
    {"DS", Opt::kBase, 0.75, 0.90, "Fig. 6a; Table II"},
    {"DS", Opt::kSamp, 0.75, 0.90, "Fig. 6a; Table III"},
    {"DS", Opt::kHybr, 0.75, 0.90, "Fig. 6a, 11; Tables IV, V"},
    {"DS", Opt::kBase, 0.80, 0.90, "Fig. 6a; Table II"},
    {"DS", Opt::kSamp, 0.80, 0.90, "Fig. 6a; Table III"},
    {"DS", Opt::kHybr, 0.80, 0.90, "Fig. 6a, 11; Tables IV, V"},
    {"DS", Opt::kBase, 0.85, 0.90, "Fig. 6a; Table II"},
    {"DS", Opt::kSamp, 0.85, 0.90, "Fig. 6a; Table III"},
    {"DS", Opt::kHybr, 0.85, 0.90, "Fig. 6a, 11; Tables IV, V"},
    {"DS", Opt::kBase, 0.90, 0.90, "Fig. 6a; Table II"},
    {"DS", Opt::kSamp, 0.90, 0.90, "Fig. 6a, 7; Table III"},
    {"DS", Opt::kHybr, 0.90, 0.90, "Fig. 6a, 7, 11; Tables IV, V"},
    {"DS", Opt::kBase, 0.95, 0.90, "Fig. 6a; Table II"},
    {"DS", Opt::kSamp, 0.95, 0.90, "Fig. 6a; Table III"},
    {"DS", Opt::kHybr, 0.95, 0.90, "Fig. 6a, 11; Tables IV, V"},
    {"DS", Opt::kSamp, 0.90, 0.60, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.60, "Fig. 7"},
    {"DS", Opt::kSamp, 0.90, 0.65, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.65, "Fig. 7"},
    {"DS", Opt::kSamp, 0.90, 0.70, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.70, "Fig. 7"},
    {"DS", Opt::kSamp, 0.90, 0.75, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.75, "Fig. 7"},
    {"DS", Opt::kSamp, 0.90, 0.80, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.80, "Fig. 7"},
    {"DS", Opt::kSamp, 0.90, 0.85, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.85, "Fig. 7"},
    {"DS", Opt::kSamp, 0.90, 0.95, "Fig. 7"},
    {"DS", Opt::kHybr, 0.90, 0.95, "Fig. 7"},
    {"DS", Opt::kActl, 0.75, 0.90, "Fig. 11; Table V"},
    {"DS", Opt::kActl, 0.80, 0.90, "Fig. 11; Table V"},
    {"DS", Opt::kActl, 0.85, 0.90, "Fig. 11; Table V"},
    {"DS", Opt::kActl, 0.90, 0.90, "Fig. 11; Table V"},
    {"DS", Opt::kActl, 0.95, 0.90, "Fig. 11; Table V"},
    {"DS", Opt::kRisk, 0.80, 0.90, "r-HUMO"},
    {"DS", Opt::kRisk, 0.85, 0.90, "r-HUMO"},
    {"DS", Opt::kRisk, 0.90, 0.90, "r-HUMO"},
    {"DS", Opt::kRisk, 0.95, 0.90, "r-HUMO"},
    {"AB", Opt::kBase, 0.70, 0.90, "Fig. 6b; Table II"},
    {"AB", Opt::kSamp, 0.70, 0.90, "Fig. 6b; Table III"},
    {"AB", Opt::kHybr, 0.70, 0.90, "Fig. 6b; Table IV"},
    {"AB", Opt::kBase, 0.75, 0.90, "Fig. 6b; Table II"},
    {"AB", Opt::kSamp, 0.75, 0.90, "Fig. 6b; Table III"},
    {"AB", Opt::kHybr, 0.75, 0.90, "Fig. 6b, 11; Tables IV, VI"},
    {"AB", Opt::kBase, 0.80, 0.90, "Fig. 6b; Table II"},
    {"AB", Opt::kSamp, 0.80, 0.90, "Fig. 6b; Table III"},
    {"AB", Opt::kHybr, 0.80, 0.90, "Fig. 6b, 11; Tables IV, VI"},
    {"AB", Opt::kBase, 0.85, 0.90, "Fig. 6b; Table II"},
    {"AB", Opt::kSamp, 0.85, 0.90, "Fig. 6b; Table III"},
    {"AB", Opt::kHybr, 0.85, 0.90, "Fig. 6b, 11; Tables IV, VI"},
    {"AB", Opt::kBase, 0.90, 0.90, "Fig. 6b; Table II"},
    {"AB", Opt::kSamp, 0.90, 0.90, "Fig. 6b, 8; Table III"},
    {"AB", Opt::kHybr, 0.90, 0.90, "Fig. 6b, 8, 11; Tables IV, VI"},
    {"AB", Opt::kBase, 0.95, 0.90, "Fig. 6b; Table II"},
    {"AB", Opt::kSamp, 0.95, 0.90, "Fig. 6b; Table III"},
    {"AB", Opt::kHybr, 0.95, 0.90, "Fig. 6b, 11; Tables IV, VI"},
    {"AB", Opt::kSamp, 0.90, 0.60, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.60, "Fig. 8"},
    {"AB", Opt::kSamp, 0.90, 0.65, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.65, "Fig. 8"},
    {"AB", Opt::kSamp, 0.90, 0.70, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.70, "Fig. 8"},
    {"AB", Opt::kSamp, 0.90, 0.75, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.75, "Fig. 8"},
    {"AB", Opt::kSamp, 0.90, 0.80, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.80, "Fig. 8"},
    {"AB", Opt::kSamp, 0.90, 0.85, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.85, "Fig. 8"},
    {"AB", Opt::kSamp, 0.90, 0.95, "Fig. 8"},
    {"AB", Opt::kHybr, 0.90, 0.95, "Fig. 8"},
    {"AB", Opt::kActl, 0.75, 0.90, "Fig. 11; Table VI"},
    {"AB", Opt::kActl, 0.80, 0.90, "Fig. 11; Table VI"},
    {"AB", Opt::kActl, 0.85, 0.90, "Fig. 11; Table VI"},
    {"AB", Opt::kActl, 0.90, 0.90, "Fig. 11; Table VI"},
    {"AB", Opt::kActl, 0.95, 0.90, "Fig. 11; Table VI"},
    {"AB", Opt::kRisk, 0.80, 0.90, "r-HUMO"},
    {"AB", Opt::kRisk, 0.85, 0.90, "r-HUMO"},
    {"AB", Opt::kRisk, 0.90, 0.90, "r-HUMO"},
    {"AB", Opt::kRisk, 0.95, 0.90, "r-HUMO"},
    {"LOG_t8_s0.1", Opt::kBase, 0.90, 0.90, "Fig. 9"},
    {"LOG_t8_s0.1", Opt::kSamp, 0.90, 0.90, "Fig. 9"},
    {"LOG_t8_s0.1", Opt::kHybr, 0.90, 0.90, "Fig. 9"},
    {"LOG_t10_s0.1", Opt::kBase, 0.90, 0.90, "Fig. 9"},
    {"LOG_t10_s0.1", Opt::kSamp, 0.90, 0.90, "Fig. 9"},
    {"LOG_t10_s0.1", Opt::kHybr, 0.90, 0.90, "Fig. 9"},
    {"LOG_t12_s0.1", Opt::kBase, 0.90, 0.90, "Fig. 9"},
    {"LOG_t12_s0.1", Opt::kSamp, 0.90, 0.90, "Fig. 9"},
    {"LOG_t12_s0.1", Opt::kHybr, 0.90, 0.90, "Fig. 9"},
    {"LOG_t14_s0.1", Opt::kBase, 0.90, 0.90, "Fig. 9, 10"},
    {"LOG_t14_s0.1", Opt::kSamp, 0.90, 0.90, "Fig. 9, 10"},
    {"LOG_t14_s0.1", Opt::kHybr, 0.90, 0.90, "Fig. 9, 10"},
    {"LOG_t16_s0.1", Opt::kBase, 0.90, 0.90, "Fig. 9"},
    {"LOG_t16_s0.1", Opt::kSamp, 0.90, 0.90, "Fig. 9"},
    {"LOG_t16_s0.1", Opt::kHybr, 0.90, 0.90, "Fig. 9"},
    {"LOG_t18_s0.1", Opt::kBase, 0.90, 0.90, "Fig. 9"},
    {"LOG_t18_s0.1", Opt::kSamp, 0.90, 0.90, "Fig. 9"},
    {"LOG_t18_s0.1", Opt::kHybr, 0.90, 0.90, "Fig. 9"},
    {"LOG_t14_s0.2", Opt::kBase, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.2", Opt::kSamp, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.2", Opt::kHybr, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.3", Opt::kBase, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.3", Opt::kSamp, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.3", Opt::kHybr, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.4", Opt::kBase, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.4", Opt::kSamp, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.4", Opt::kHybr, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.5", Opt::kBase, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.5", Opt::kSamp, 0.90, 0.90, "Fig. 10"},
    {"LOG_t14_s0.5", Opt::kHybr, 0.90, 0.90, "Fig. 10"},
};
// clang-format on

struct Cell {
  size_t runs = 0;
  size_t met = 0;
  double cost = 0.0, precision = 0.0, recall = 0.0, f1 = 0.0;
};

const Preset& PresetOf(const Row& row) {
  for (const Preset& p : kPresets)
    if (std::string(p.name) == row.preset) return p;
  std::fprintf(stderr, "row names unknown preset %s\n", row.preset);
  std::exit(1);
}

data::Workload Generate(const Preset& p) {
  if (p.source == Source::kDs) return data::SimulatePairs(data::DsConfig());
  if (p.source == Source::kAb) return data::SimulatePairs(data::AbConfig());
  data::LogisticGeneratorOptions gen;
  gen.num_pairs = 100000;
  gen.pairs_per_subset = kSubsetSize;
  gen.tau = p.tau;
  gen.sigma = p.sigma;
  gen.seed = 7;
  return data::GenerateLogisticWorkload(gen);
}

/// ACTL certifies precision only. A run that fails counts as a miss with
/// zero quality and cost.
Cell RunActl(const data::Workload& w, const core::SubsetPartition& p,
             const core::QualityRequirement& req) {
  Cell cell;
  cell.runs = 1;
  core::Oracle oracle(&w);
  actl::ActlOptions options;
  options.seed = bench::kBaseSeed;
  const auto out =
      actl::ActiveLearningResolver(options).Resolve(p, req.alpha, &oracle);
  if (!out.ok()) return cell;
  const eval::Quality q = eval::QualityOf(w, out->labels);
  cell.met = q.precision >= req.alpha && q.recall >= req.beta;
  cell.cost = out->human_cost_fraction;
  cell.precision = q.precision;
  cell.recall = q.recall;
  cell.f1 = q.f1;
  return cell;
}

/// RISK returns its own labeling, so it runs outside eval::RunExperiment
/// under the same rules: one fresh oracle per sampler seed, and a run that
/// errors counts as a miss and stays out of the means.
Cell RunRisk(const data::Workload& w, const core::SubsetPartition& p,
             const core::QualityRequirement& req) {
  Cell cell;
  cell.runs = kTrials;
  size_t ok_runs = 0;
  for (size_t t = 0; t < kTrials; ++t) {
    core::Oracle oracle(&w);
    core::RiskAwareOptions options;
    options.sampling.seed = bench::kBaseSeed + t;
    const auto out = core::RiskAwareOptimizer(options).Resolve(p, req, &oracle);
    if (!out.ok()) continue;
    ++ok_runs;
    const eval::Quality q = eval::QualityOf(w, out->resolution.labels);
    cell.met += q.precision >= req.alpha && q.recall >= req.beta;
    cell.cost += out->resolution.human_cost_fraction;
    cell.precision += q.precision;
    cell.recall += q.recall;
    cell.f1 += q.f1;
  }
  if (ok_runs > 0) {
    const double n = static_cast<double>(ok_runs);
    cell.cost /= n;
    cell.precision /= n;
    cell.recall /= n;
    cell.f1 /= n;
  }
  return cell;
}

Cell RunCell(const data::Workload& w, const core::SubsetPartition& p,
             const Row& row) {
  const core::QualityRequirement req{row.alpha, row.alpha, row.theta};
  if (row.optimizer == Opt::kActl) return RunActl(w, p, req);
  if (row.optimizer == Opt::kRisk) return RunRisk(w, p, req);
  auto factory = [&row](uint64_t seed) {
    if (row.optimizer == Opt::kSamp) return bench::MakeSamp(seed);
    if (row.optimizer == Opt::kHybr) return bench::MakeHybr(seed);
    return bench::MakeBase();
  };
  // BASE is deterministic, so it runs once.
  const size_t trials = row.optimizer == Opt::kBase ? 1 : kTrials;
  const eval::ExperimentSummary s =
      eval::RunExperiment(p, req, factory, trials, bench::kBaseSeed);
  Cell cell;
  cell.runs = s.trials;
  cell.met = s.successes;
  cell.cost = s.mean_cost_fraction;
  cell.precision = s.mean_precision;
  cell.recall = s.mean_recall;
  cell.f1 = s.mean_f1;
  return cell;
}

/// The row of the same (preset, alpha, theta) cell run by `opt`, or null.
const Cell* Partner(const std::vector<Cell>& cells, const Row& row, Opt opt) {
  for (size_t i = 0; i < std::size(kRows); ++i) {
    const Row& r = kRows[i];
    if (r.optimizer == opt && std::string(r.preset) == row.preset &&
        r.alpha == row.alpha && r.theta == row.theta)
      return &cells[i];
  }
  return nullptr;
}

double BandGap(const Row& row, const Cell& cell) {
  if (row.optimizer == Opt::kActl || row.optimizer == Opt::kRisk) return 0.0;
  const Preset& p = PresetOf(row);
  return std::max({0.0, p.band_lo - cell.cost, cell.cost - p.band_hi});
}

/// The paper orders SAMP below BASE and HUMO's recall above ACTL's on DS
/// and AB; it states no ordering on the logistic presets.
double OrderGap(const std::vector<Cell>& cells, const Row& row,
                const Cell& cell) {
  if (PresetOf(row).source == Source::kLogistic) return 0.0;
  if (row.optimizer == Opt::kSamp) {
    const Cell* base = Partner(cells, row, Opt::kBase);
    return base ? std::max(0.0, cell.cost - base->cost) : 0.0;
  }
  if (row.optimizer == Opt::kActl) {
    const Cell* hybr = Partner(cells, row, Opt::kHybr);
    return hybr ? std::max(0.0, cell.recall - hybr->recall) : 0.0;
  }
  return 0.0;
}

constexpr char kRowFormat[] =
    "%-13s %-4s %5.2f %5.2f %3zu/%-2zu %7.2f%% %7.4f %7.4f %7.4f %8.4f %8.4f"
    "  %s\n";

/// BASE and HYBR rest on the monotonicity of precision, which the paper
/// shows failing on the logistic generator at sigma >= 0.3 (Fig. 10).
bool CoverageExempt(const Row& row) {
  return PresetOf(row).sigma >= 0.3 &&
         (row.optimizer == Opt::kBase || row.optimizer == Opt::kHybr);
}

}  // namespace

int main() {
  bench::PrintHeader("bench_paper — the paper's §VIII claims, gated",
                     "Chen et al., ICDE 2018, Figs. 6-11, Tables II-VI; "
                     "r-HUMO risk-ordered inspection");
  const auto start = std::chrono::steady_clock::now();

  // One workload at a time: run every row of a preset, then drop it.
  std::vector<Cell> cells(std::size(kRows));
  for (const Preset& preset : kPresets) {
    const data::Workload w = Generate(preset);
    const core::SubsetPartition partition(&w, kSubsetSize);
    for (size_t i = 0; i < std::size(kRows); ++i)
      if (std::string(kRows[i].preset) == preset.name)
        cells[i] = RunCell(w, partition, kRows[i]);
  }

  bool ok = true;
  std::vector<bench::JsonObject> rows;
  std::printf("preset        opt  alpha theta    met     cost    prec  recall"
              "      F1 band_gap  ord_gap  artifacts\n");
  for (size_t i = 0; i < std::size(kRows); ++i) {
    const Row& row = kRows[i];
    const Cell& cell = cells[i];
    const double band_gap = BandGap(row, cell);
    const double order_gap = OrderGap(cells, row, cell);
    std::printf(kRowFormat, row.preset, Name(row.optimizer), row.alpha,
                row.theta, cell.met, cell.runs, 100.0 * cell.cost,
                cell.precision, cell.recall, cell.f1, band_gap, order_gap,
                row.artifacts);

    if (!CoverageExempt(row) &&
        !eval::CoverageHolds(cell.met, cell.runs, row.theta)) {
      std::fprintf(stderr, "COVERAGE: %s %s (%.2f, %.2f): %zu of %zu met\n",
                   row.preset, Name(row.optimizer), row.alpha, row.theta,
                   cell.met, cell.runs);
      ok = false;
    }
    const Cell* samp = Partner(cells, row, Opt::kSamp);
    if ((row.optimizer == Opt::kHybr || row.optimizer == Opt::kRisk) &&
        samp != nullptr && cell.cost > samp->cost) {
      std::fprintf(stderr, "ORDERING: %s (%.2f, %.2f): %s %.4f > SAMP %.4f\n",
                   row.preset, row.alpha, row.theta, Name(row.optimizer),
                   cell.cost, samp->cost);
      ok = false;
    }

    bench::JsonObject& out = rows.emplace_back();
    out.Set("preset", row.preset);
    out.Set("optimizer", Name(row.optimizer));
    out.Set("alpha", row.alpha, 2);
    out.Set("theta", row.theta, 2);
    out.Set("artifacts", row.artifacts);
    out.Set("runs", cell.runs);
    out.Set("met", cell.met);
    out.Set("cost_fraction", cell.cost, 6);
    out.Set("precision", cell.precision, 6);
    out.Set("recall", cell.recall, 6);
    out.Set("f1", cell.f1, 6);
    out.Set("band_gap", band_gap, 6);
    out.Set("order_gap", order_gap, 6);
  }
  std::printf("\n%zu rows in %.1f s\n", rows.size(),
              bench::MsSince(start) / 1000.0);

  bench::JsonObject doc;
  doc.Set("bench", "paper");
  doc.Set("trials", kTrials);
  doc.Set("base_seed", bench::kBaseSeed);
  doc.Set("subset_size", kSubsetSize);
  doc.Set("results", rows);
  if (!bench::WriteBenchJson("BENCH_paper.json", doc)) return 1;
  if (!ok) {
    std::fprintf(stderr, "bench_paper: a coverage or ordering gate failed\n");
    return 1;
  }
  return 0;
}
