// Raw-record resolution bench: drives the 10M-100M-pair regime end to end
// — tokenize -> MinHash/LSH block -> SIMD batch score -> partition -> SAMP
// certify — and, separately, the out-of-core path (external sort to a
// columnar file, mmap-backed resolution under a fixed RAM budget). Records
// per scale:
//
//   tokenize_ms       RecordColumns::Build of both tables into a shared
//                     dictionary + TF-IDF weight attachment
//   exact_pairs/ms    TokenBlock on the group key — the exact candidate
//                     baseline LSH recall is measured against
//   lsh_pairs/ms      MinHashLshBlock (banded multi-probe MinHash over
//                     token ids, SIMD-scored)
//   lsh_recall        fraction of the exact blocker's MATCHED pairs the
//                     LSH workload retains (gated: >= recall floor)
//   string_score_ms   scoring every LSH candidate through the legacy
//                     string path (tokenize + set-intersect per call)
//   simd_score_ms     the same pairs through BatchScorePairs (id kernels,
//                     AVX2 when available) — simd_speedup is the ratio the
//                     CI perf gate tracks
//   scores_identical  1 when the SIMD scores are BIT-IDENTICAL to the
//                     string path on every candidate (enforced, exit 1)
//   samp_* / risk_*   SAMP / RISK certification over the LSH workload
//                     (alpha=beta=theta=0.9, seed 1000, subset 200)
//   peak_rss_mb       getrusage high-water mark after the scale's stages
//
// The mmap stage (kMmapPairs pairs, 10M) streams the scale-generator
// realization chunk-by-chunk through ExternalColumnsWriter (peak buffered
// columns: kRunPairs * 17 bytes), maps the merged file, and certifies the
// mmap-backed workload with SAMP. A small in-RAM cross-check (100k pairs)
// asserts the external file is BYTE-IDENTICAL to WriteColumnsFile of the
// in-RAM radix sort and that the mmap-backed certification reproduces the
// RAM-backed solution exactly. The columnar files live in
// std::filesystem::temp_directory_path() (TMPDIR when set) and are removed
// on every exit path.
//
// The pool is pinned to 1 thread, the count BENCH_records.json records, so
// HUMO_NUM_THREADS does not change what the gate compares. Sanitizer builds
// (bench::kSanitized) run one 20k-pair scale, one repetition, and a 200k
// mmap stage in 60k-pair runs.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;
using bench::NowMs;
using bench::PeakRssMb;

namespace {

const core::QualityRequirement kReq{0.9, 0.9, 0.9};
constexpr size_t kSubsetSize = 200;
constexpr double kScoreThreshold = 0.2;

// Candidate-pair scales, one row each.
const std::vector<size_t> kScales =
    bench::kSanitized ? std::vector<size_t>{20000}
                      : std::vector<size_t>{100000, 1000000};
// Best-of repetitions for the scoring timings.
constexpr size_t kReps = bench::kSanitized ? 1 : 3;
// Minimum lsh_recall.
constexpr double kRecallFloor = 0.95;
// Out-of-core stage size, and the external sort's run size.
constexpr size_t kMmapPairs = bench::kSanitized ? 200000 : 10000000;
constexpr size_t kRunPairs = bench::kSanitized ? 60000 : 1000000;

/// Removes its files when it goes out of scope, on every exit path.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::vector<std::string> paths)
      : paths_(std::move(paths)) {}
  ~RemoveOnExit() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::vector<std::string> paths_;
};

struct RecordsResult {
  size_t scale = 0;
  size_t records = 0;
  double tokenize_ms = 0.0;
  size_t exact_pairs = 0;
  double exact_ms = 0.0;
  size_t lsh_pairs = 0;
  double lsh_ms = 0.0;
  double lsh_recall = 0.0;
  size_t score_pairs = 0;
  double string_score_ms = 0.0;
  double simd_score_ms = 0.0;
  double simd_speedup = 0.0;
  int scores_identical = 0;
  double samp_ms = -1.0;
  long long samp_cost = -1;
  double samp_precision = -1.0;
  double samp_recall = -1.0;
  double risk_ms = -1.0;
  long long risk_cost = -1;
  double peak_rss_mb = 0.0;
};

std::set<std::pair<uint32_t, uint32_t>> MatchedPairs(const data::Workload& w) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w.IsMatch(i)) out.insert({w[i].left_id, w[i].right_id});
  }
  return out;
}

int RunScale(size_t scale, RecordsResult* out) {
  out->scale = scale;

  // Tables sized so TokenBlock yields exactly `scale` candidate pairs
  // (groups * 8 * 8), with matched names run through the perturbation
  // model — the dirty-duplicate workload LSH recall is meaningful on.
  data::ScaleTablesConfig tables_cfg;
  tables_cfg.left_per_group = 8;
  tables_cfg.right_per_group = 8;
  tables_cfg.groups = std::max<size_t>(1, scale / 64);
  tables_cfg.perturb_names = true;
  tables_cfg.perturbation = data::LightPerturbation();
  const data::ScaleTables tables = data::GenerateScaleTables(tables_cfg);
  out->records = tables.left.size() + tables.right.size();

  // ---- Tokenize into shared-dictionary columns + TF-IDF weights. ----
  double t0 = NowMs();
  text::TokenDictionary dict;
  data::RecordColumns left_cols =
      data::RecordColumns::Build(tables.left, 1, &dict);
  data::RecordColumns right_cols =
      data::RecordColumns::Build(tables.right, 1, &dict);
  text::TfIdfModel model;
  model.FitDictionary(dict);
  left_cols.AttachTfIdf(model);
  right_cols.AttachTfIdf(model);
  out->tokenize_ms = NowMs() - t0;

  // ---- Exact baseline: token blocking on the group key. ----
  const data::PairScorer scorer = [](const data::Record& a,
                                     const data::Record& b) {
    return text::JaccardSimilarity(a.attributes[1], b.attributes[1]);
  };
  t0 = NowMs();
  const data::Workload exact =
      data::TokenBlock(tables.left, tables.right, 0, scorer, kScoreThreshold);
  out->exact_ms = NowMs() - t0;
  out->exact_pairs = exact.size();

  // ---- MinHash/LSH blocking over the same columns. ----
  const data::MinHashLshOptions lsh_options;
  t0 = NowMs();
  const data::Workload lsh = data::MinHashLshBlock(
      tables.left, tables.right, left_cols, right_cols, lsh_options,
      text::IdSetMetric::kJaccard, kScoreThreshold);
  out->lsh_ms = NowMs() - t0;
  out->lsh_pairs = lsh.size();

  const auto exact_matches = MatchedPairs(exact);
  const auto lsh_matches = MatchedPairs(lsh);
  size_t retained = 0;
  for (const auto& p : exact_matches) retained += lsh_matches.count(p);
  out->lsh_recall =
      exact_matches.empty()
          ? 1.0
          : static_cast<double>(retained) /
                static_cast<double>(exact_matches.size());
  if (out->lsh_recall < kRecallFloor) {
    std::fprintf(stderr,
                 "bench_records_scale: LSH recall %.4f below floor %.4f at "
                 "scale %zu (%zu/%zu matched pairs retained)\n",
                 out->lsh_recall, kRecallFloor, scale, retained,
                 exact_matches.size());
    return 1;
  }

  // ---- SIMD vs string scoring over the FULL in-group cross product — the
  // same `scale` candidate pairs the exact blocker enumerates (records of
  // group g occupy indices [g*8, (g+1)*8) in both tables). ----
  data::LshCandidates candidates;
  candidates.left.reserve(tables_cfg.groups * 64);
  candidates.right.reserve(tables_cfg.groups * 64);
  for (size_t g = 0; g < tables_cfg.groups; ++g) {
    for (size_t i = 0; i < tables_cfg.left_per_group; ++i) {
      for (size_t j = 0; j < tables_cfg.right_per_group; ++j) {
        candidates.left.push_back(
            static_cast<uint32_t>(g * tables_cfg.left_per_group + i));
        candidates.right.push_back(
            static_cast<uint32_t>(g * tables_cfg.right_per_group + j));
      }
    }
  }
  out->score_pairs = candidates.left.size();
  std::vector<double> string_scores(candidates.left.size());
  for (size_t rep = 0; rep < kReps; ++rep) {
    t0 = NowMs();
    for (size_t k = 0; k < candidates.left.size(); ++k) {
      string_scores[k] =
          scorer(tables.left[candidates.left[k]],
                 tables.right[candidates.right[k]]);
    }
    const double ms = NowMs() - t0;
    out->string_score_ms =
        rep == 0 ? ms : std::min(out->string_score_ms, ms);
  }
  std::vector<double> simd_scores(candidates.left.size());
  for (size_t rep = 0; rep < kReps; ++rep) {
    t0 = NowMs();
    data::BatchScorePairs(left_cols, right_cols, candidates.left.data(),
                          candidates.right.data(), candidates.left.size(),
                          text::IdSetMetric::kJaccard, simd_scores.data());
    const double ms = NowMs() - t0;
    out->simd_score_ms = rep == 0 ? ms : std::min(out->simd_score_ms, ms);
  }
  out->simd_speedup = out->string_score_ms / out->simd_score_ms;

  // Contract: the id kernels reproduce the string path BIT FOR BIT.
  out->scores_identical = 1;
  for (size_t k = 0; k < candidates.left.size(); ++k) {
    if (simd_scores[k] != string_scores[k]) {
      std::fprintf(stderr,
                   "bench_records_scale: SIMD/string score divergence at "
                   "candidate %zu (scale %zu): %.17g vs %.17g\n",
                   k, scale, simd_scores[k], string_scores[k]);
      out->scores_identical = 0;
      return 1;
    }
  }

  // ---- SAMP certification over the LSH workload. ----
  core::SubsetPartition partition(&lsh, kSubsetSize);
  {
    core::Oracle oracle(&lsh);
    core::PartialSamplingOptions options;
    options.seed = bench::kBaseSeed;
    t0 = NowMs();
    auto solution = core::PartialSamplingOptimizer(options).Optimize(
        partition, kReq, &oracle);
    if (!solution.ok()) {
      std::fprintf(stderr,
                   "bench_records_scale: SAMP failed at scale %zu: %s\n",
                   scale, solution.status().ToString().c_str());
      return 1;
    }
    const auto resolution = core::ApplySolution(partition, *solution, &oracle);
    out->samp_ms = NowMs() - t0;
    out->samp_cost = static_cast<long long>(oracle.cost());
    const auto quality = eval::QualityOf(lsh, resolution.labels);
    out->samp_precision = quality.precision;
    out->samp_recall = quality.recall;
  }

  // ---- RISK certification. ----
  {
    core::Oracle oracle(&lsh);
    core::RiskAwareOptions options;
    options.sampling.seed = bench::kBaseSeed;
    t0 = NowMs();
    auto outcome =
        core::RiskAwareOptimizer(options).Resolve(partition, kReq, &oracle);
    if (!outcome.ok()) {
      std::fprintf(stderr,
                   "bench_records_scale: RISK failed at scale %zu: %s\n",
                   scale, outcome.status().ToString().c_str());
      return 1;
    }
    out->risk_ms = NowMs() - t0;
    out->risk_cost = static_cast<long long>(oracle.cost());
  }

  out->peak_rss_mb = PeakRssMb();
  return 0;
}

struct MmapResult {
  size_t pairs = 0;
  size_t run_pairs = 0;
  double write_ms = 0.0;
  double open_ms = 0.0;
  double mapped_mb = 0.0;
  double samp_ms = -1.0;
  long long samp_cost = -1;
  double samp_precision = -1.0;
  double samp_recall = -1.0;
  int verified_against_ram = 0;
  double peak_rss_mb = 0.0;
};

/// 100k-pair cross-check: the external merge must produce the byte-identical
/// file of the in-RAM radix sort, and SAMP over the mapping must reproduce
/// the RAM-backed solution exactly.
int VerifyMmapAgainstRam(const std::filesystem::path& dir) {
  const std::string golden = dir / "humo_records_golden.humocol";
  const std::string merged = dir / "humo_records_merged.humocol";
  const RemoveOnExit cleanup({golden, merged});
  data::ScaleWorkloadConfig cfg;
  cfg.num_pairs = 100000;
  const data::Workload ram = data::GenerateScaleWorkload(cfg);
  if (!data::WriteColumnsFile(ram, golden).ok()) return 1;

  data::ExternalColumnsWriter writer(merged, /*run_pairs=*/17000);
  for (size_t begin = 0; begin < cfg.num_pairs; begin += 23000) {
    const size_t end = std::min(begin + 23000, cfg.num_pairs);
    const data::ScaleColumns cols =
        data::GenerateScaleColumnsRange(cfg, begin, end);
    if (!writer
             .Append(cols.similarities.data(), cols.left_ids.data(),
                     cols.right_ids.data(), cols.labels.data(),
                     end - begin)
             .ok()) {
      return 1;
    }
  }
  if (!writer.Finish().ok()) return 1;

  auto read_all = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  };
  if (read_all(golden) != read_all(merged)) {
    std::fprintf(stderr,
                 "bench_records_scale: external merge file differs from "
                 "in-RAM sort file\n");
    return 1;
  }

  auto mapped = data::MmapColumns::Open(merged, /*verify_sorted=*/true);
  if (!mapped.ok()) return 1;
  const data::Workload via_mmap = data::Workload::FromMmap(*mapped);
  auto certify = [](const data::Workload& w, size_t* cost) {
    core::SubsetPartition p(&w, kSubsetSize);
    core::Oracle oracle(&w);
    core::PartialSamplingOptions o;
    o.seed = bench::kBaseSeed;
    auto sol = core::PartialSamplingOptimizer(o).Optimize(p, kReq, &oracle);
    if (!sol.ok()) return std::make_pair(size_t{0}, size_t{0});
    core::ApplySolution(p, *sol, &oracle);
    *cost = oracle.cost();
    return std::make_pair(sol->h_lo, sol->h_hi);
  };
  size_t ram_cost = 0, mmap_cost = 0;
  const auto ram_sol = certify(ram, &ram_cost);
  const auto mmap_sol = certify(via_mmap, &mmap_cost);
  if (ram_sol != mmap_sol || ram_cost != mmap_cost) {
    std::fprintf(stderr,
                 "bench_records_scale: mmap-backed SAMP diverged from "
                 "RAM-backed (cost %zu vs %zu)\n",
                 mmap_cost, ram_cost);
    return 1;
  }
  return 0;
}

int RunMmapStage(MmapResult* out) {
  out->pairs = kMmapPairs;
  out->run_pairs = kRunPairs;

  // The in-RAM equivalence proof first, at a scale where both fit.
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  if (VerifyMmapAgainstRam(dir) != 0) return 1;
  out->verified_against_ram = 1;

  // Stream the full realization to disk in run-sized unsorted chunks; the
  // columns never exist in RAM all at once.
  const std::string path = dir / "humo_records.humocol";
  const RemoveOnExit cleanup({path});
  double t0 = NowMs();
  data::ExternalColumnsWriter writer(path, kRunPairs);
  data::ScaleWorkloadConfig cfg;
  cfg.num_pairs = kMmapPairs;
  for (size_t begin = 0; begin < kMmapPairs; begin += kRunPairs) {
    const size_t end = std::min(begin + kRunPairs, kMmapPairs);
    const data::ScaleColumns cols =
        data::GenerateScaleColumnsRange(cfg, begin, end);
    if (!writer
             .Append(cols.similarities.data(), cols.left_ids.data(),
                     cols.right_ids.data(), cols.labels.data(),
                     end - begin)
             .ok()) {
      std::fprintf(stderr, "bench_records_scale: Append failed\n");
      return 1;
    }
  }
  auto total = writer.Finish();
  if (!total.ok() || *total != kMmapPairs) {
    std::fprintf(stderr, "bench_records_scale: external sort failed\n");
    return 1;
  }
  out->write_ms = NowMs() - t0;

  t0 = NowMs();
  auto mapped = data::MmapColumns::Open(path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "bench_records_scale: Open failed: %s\n",
                 mapped.status().message().c_str());
    return 1;
  }
  (*mapped)->AdviseRandom();
  const data::Workload workload = data::Workload::FromMmap(*mapped);
  out->open_ms = NowMs() - t0;
  out->mapped_mb =
      static_cast<double>((*mapped)->MappedBytes()) / (1024.0 * 1024.0);

  core::SubsetPartition partition(&workload, kSubsetSize);
  core::Oracle oracle(&workload);
  core::PartialSamplingOptions options;
  options.seed = bench::kBaseSeed;
  // SAMP's GP fit is cubic in the sampled-subset count and its posterior
  // sweep quadratic in it times the total subset count; at 10M pairs the
  // default [4%, 6%] fraction would train on ~2500 of 50000 subsets.
  // Above 20k subsets drop to the paper's own lower sampling range so
  // the out-of-core certification stays minutes, not hours.
  if (partition.num_subsets() > 20000) {
    options.sample_fraction_lo = 0.01;
    options.sample_fraction_hi = 0.015;
  }
  t0 = NowMs();
  auto solution = core::PartialSamplingOptimizer(options).Optimize(
      partition, kReq, &oracle);
  if (!solution.ok()) {
    std::fprintf(stderr, "bench_records_scale: mmap SAMP failed: %s\n",
                 solution.status().ToString().c_str());
    return 1;
  }
  const auto resolution = core::ApplySolution(partition, *solution, &oracle);
  out->samp_ms = NowMs() - t0;
  out->samp_cost = static_cast<long long>(oracle.cost());
  const auto quality = eval::QualityOf(workload, resolution.labels);
  out->samp_precision = quality.precision;
  out->samp_recall = quality.recall;

  out->peak_rss_mb = PeakRssMb();
  return 0;
}

}  // namespace

int main() {
  ThreadPool::SetGlobalThreads(1);

  std::printf(
      "bench_records_scale: raw-record resolution (threads=%zu, reps=%zu, "
      "avx2=%s)\n\n",
      ThreadPool::Global()->num_threads(), kReps,
      CpuHasAvx2() ? "yes" : "no");

  std::printf("%10s | %8s | %9s %9s %7s | %9s %9s %7s | %8s\n", "pairs",
              "tok ms", "exact ms", "lsh ms", "recall", "str ms", "simd ms",
              "speedup", "rss MB");

  std::vector<bench::JsonObject> rows;
  for (size_t scale : kScales) {
    RecordsResult r;
    if (RunScale(scale, &r) != 0) return 1;
    std::printf(
        "%10zu | %8.1f | %9.1f %9.1f %6.3f | %9.1f %9.1f %6.2fx | %8.1f\n",
        r.scale, r.tokenize_ms, r.exact_ms, r.lsh_ms, r.lsh_recall,
        r.string_score_ms, r.simd_score_ms, r.simd_speedup, r.peak_rss_mb);
    bench::JsonObject& out = rows.emplace_back();
    out.Set("scale", r.scale);
    out.Set("records", r.records);
    out.Set("tokenize_ms", r.tokenize_ms, 3);
    out.Set("exact_pairs", r.exact_pairs);
    out.Set("exact_ms", r.exact_ms, 3);
    out.Set("lsh_pairs", r.lsh_pairs);
    out.Set("lsh_ms", r.lsh_ms, 3);
    out.Set("lsh_recall", r.lsh_recall, 5);
    out.Set("score_pairs", r.score_pairs);
    out.Set("string_score_ms", r.string_score_ms, 3);
    out.Set("simd_score_ms", r.simd_score_ms, 3);
    out.Set("simd_speedup", r.simd_speedup, 3);
    out.Set("scores_identical", r.scores_identical);
    out.Set("samp_ms", r.samp_ms, 3);
    out.Set("samp_cost", r.samp_cost);
    out.Set("samp_precision", r.samp_precision);
    out.Set("samp_recall", r.samp_recall);
    out.Set("risk_ms", r.risk_ms, 3);
    out.Set("risk_cost", r.risk_cost);
    out.Set("peak_rss_mb", r.peak_rss_mb, 1);
  }

  MmapResult m;
  if (RunMmapStage(&m) != 0) return 1;
  std::printf(
      "\nmmap %zu pairs: write %.1f ms, map %.1f ms (%.1f MB file), "
      "samp %.1f ms cost %lld, rss %.1f MB\n",
      m.pairs, m.write_ms, m.open_ms, m.mapped_mb, m.samp_ms, m.samp_cost,
      m.peak_rss_mb);

  bench::JsonObject doc;
  doc.Set("bench", "records_scale");
  doc.Set("threads", ThreadPool::Global()->num_threads());
  doc.Set("reps", kReps);
  doc.Set("subset_size", kSubsetSize);
  doc.Set("avx2", CpuHasAvx2());
  doc.Set("results", rows);
  bench::JsonObject mmap;
  mmap.Set("pairs", m.pairs);
  mmap.Set("run_pairs", m.run_pairs);
  mmap.Set("write_ms", m.write_ms, 3);
  mmap.Set("open_ms", m.open_ms, 3);
  mmap.Set("mapped_mb", m.mapped_mb, 1);
  mmap.Set("samp_ms", m.samp_ms, 3);
  mmap.Set("samp_cost", m.samp_cost);
  mmap.Set("samp_precision", m.samp_precision);
  mmap.Set("samp_recall", m.samp_recall);
  mmap.Set("verified_against_ram", m.verified_against_ram);
  mmap.Set("peak_rss_mb", m.peak_rss_mb, 1);
  doc.Set("mmap", mmap);
  return bench::WriteBenchJson("BENCH_records.json", doc) ? 0 : 1;
}
