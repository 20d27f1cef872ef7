// humo-e2e benchmark binary: runs ONE repetition of ONE workload in this
// process and prints one JSON object on stdout. bench/e2e/run.py starts a
// fresh process per repetition, so every repetition pays the first-run costs
// a one-shot user pays, and the peak RSS it reports belongs to one workload.
//
//   bench_e2e --workload NAME --seed N --rep R [--threads T] [--trace FILE]
//   bench_e2e --info
//
// Inputs are generated from (seed, rep) alone and handed to the library; the
// optimizers' own sampling seed stays fixed at 1000. Every layer is timed
// from outside, around calls into its public API:
//
//   setup_s    process start -> the first timed call (input generation and,
//              for records-1m, the tables' match set)
//   resolve_s  summed over the repetition's inputs: input -> certified
//              labels (-> entity clustering on pairs-1m and records-1m), or
//              first Ingest -> drained certificate (serve-100k). Output
//              checks run outside it.
//
// With --trace the same calls are wrapped in spans (span_recorder.h) that are
// written to FILE as Chrome trace-event JSON; the oracle's fresh inspections
// are then routed through a counting provider that answers exactly like
// Oracle::InlineAnswer, so traced labels and costs equal untraced ones.
//
// Output checks (drained service == synchronous resolver, snapshot
// validation, blocking recall, ...) are reported as named failures in the
// JSON; run.py turns any failure into a nonzero exit.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "humo.h"
#include "span_recorder.h"

#ifndef HUMO_E2E_BUILD_TYPE
#define HUMO_E2E_BUILD_TYPE "unknown"
#endif

using namespace humo;
using bench::SpanRecorder;
using Clock = std::chrono::steady_clock;
using Span = SpanRecorder::Scope;

namespace {

const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const core::QualityRequirement kReq{0.9, 0.9, 0.9};
constexpr uint64_t kSamplingSeed = 1000;
constexpr size_t kSubsetSize = 200;

// Workload sizes. Each is large enough that one repetition's timing varies
// little from one input seed to the next (see README.md, "Steadiness").
constexpr size_t kPairsSize = 1'000'000;
constexpr size_t kRecordsCandidates = 1'000'000;  // groups * 8 * 8
constexpr double kRecordsThreshold = 0.2;
constexpr double kRecordsRecallFloor = 0.95;
constexpr size_t kServePairs = 100'000;
constexpr size_t kServeShards = 64;
// The first certification runs early: how many answers it buys varies with
// the input, and every later ingest re-keys them, so a late one would make
// the run's time follow the input rather than the code.
constexpr size_t kServeMidCertShard = 8;
// One reader, so the service's ingest thread, the reader and the crowd worker
// fit on a few cores shared with other load.
constexpr size_t kServeReaders = 1;
constexpr size_t kServeCrowdWorkers = 1;
constexpr size_t kPaperAbPerRep = 10;
constexpr size_t kPaperDsPerRep = 50;
// RISK runs untimed on the first realizations of each repetition only: on
// full-size AB it takes several times the timed resolve.
constexpr size_t kPaperRiskPerRep = 3;

/// Seed of input `k` of repetition `rep` (SplitMix64 finalizer): distinct
/// run seeds give independent inputs.
uint64_t InputSeed(uint64_t seed, size_t rep, size_t k) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL *
                          (1 + (static_cast<uint64_t>(rep) << 20) + k);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  size_t rep = 0;
  size_t threads = 1;
  std::string trace_path;
};

/// What one repetition hands back to run.py: summed counters, sample
/// histograms, checked operations, and a digest of every output (labels,
/// costs, clustering checksums) for the traced == untraced comparison.
class Report {
 public:
  void Add(const std::string& name, double value) { values_[name] += value; }
  void Sample(const std::string& name, double value) {
    ++samples_[name][value];
  }

  /// Counts one checked operation; a failed one is named in the output.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
    return ok;
  }

  void Mix(uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      digest_ = (digest_ ^ ((value >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void MixLabels(const std::vector<int>& labels) {
    Mix(labels.size());
    for (const int label : labels) Mix(static_cast<uint64_t>(label));
  }

  double setup_s = 0.0;
  double resolve_s = 0.0;
  size_t inputs = 0;

  void Print(const Options& options, double peak_rss_mb) const {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"rep\": %zu, "
                "\"threads\": %zu, \"inputs\": %zu, \"setup_s\": %.9g, "
                "\"resolve_s\": %.9g, \"peak_rss_mb\": %.6g, "
                "\"attempted\": %zu, \"digest\": \"%016llx\", \"failures\": [",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.rep,
                options.threads, inputs, setup_s, resolve_s, peak_rss_mb,
                attempted_, static_cast<unsigned long long>(digest_));
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", failures_[i].c_str());
    }
    std::printf("], \"values\": {");
    const char* sep = "";
    for (const auto& [name, value] : values_) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}, \"samples\": {");
    sep = "";
    for (const auto& [name, histogram] : samples_) {
      std::printf("%s\"%s\": [", sep, name.c_str());
      const char* inner = "";
      for (const auto& [value, count] : histogram) {
        std::printf("%s[%.9g, %zu]", inner, value, count);
        inner = ", ";
      }
      std::printf("]");
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::map<double, size_t>> samples_;
  std::vector<std::string> failures_;
  size_t attempted_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
};

/// Traced runs only: routes the oracle's fresh inspections through a
/// provider that answers exactly like InlineAnswer but counts each batch
/// (one human round-trip) and records it as a core.oracle span.
void CountOracleBatches(core::Oracle* oracle, SpanRecorder* spans,
                        Report* report) {
  if (!spans->enabled()) return;
  const core::Oracle* answers = oracle;
  oracle->SetAnswerProvider(
      [answers, spans, report](const std::vector<size_t>& indices) {
        Span span(spans, "core.oracle");
        report->Add("core.oracle.batches", 1);
        report->Add("core.oracle.pairs", static_cast<double>(indices.size()));
        report->Sample("core.oracle.batch_pairs",
                       static_cast<double>(indices.size()));
        std::vector<char> out(indices.size());
        for (size_t t = 0; t < indices.size(); ++t) {
          out[t] = answers->InlineAnswer(indices[t]) ? 1 : 0;
        }
        return out;
      });
}

enum class Certifier { kBase, kSamp, kHybr, kRisk };

const char* CertifierName(Certifier c) {
  switch (c) {
    case Certifier::kBase:
      return "base";
    case Certifier::kSamp:
      return "samp";
    case Certifier::kHybr:
      return "hybr";
    case Certifier::kRisk:
      return "risk";
  }
  return "?";
}

/// Adds one certification's human cost: run.py reports the mean of
/// "human_cost_frac.<name>" over "certifications.<name>".
void AddHumanCost(const std::string& name, double cost_frac, Report* report) {
  report->Add("human_cost_frac." + name, cost_frac);
  report->Add("certifications." + name, 1);
}

/// Certifies `w` with one certifier and, when `cluster` is set, clusters
/// the labels into entities. Each certifier gets its own oracle and
/// estimation context, so its human cost stands alone. With `layer_counts`
/// unset only the human cost and the output digest are recorded (for a
/// certification run outside the timed resolve). Returns the labels (empty
/// when the certifier failed).
std::vector<int> Certify(Certifier certifier, const data::Workload& w,
                         const core::SubsetPartition& partition, bool cluster,
                         bool layer_counts, SpanRecorder* spans,
                         Report* report) {
  const std::string name = CertifierName(certifier);
  core::Oracle oracle(&w);
  CountOracleBatches(&oracle, spans, report);
  core::EstimationContext ctx(&partition, &oracle);
  Result<core::HumoSolution> solution = Status::Internal("not run");
  std::vector<int> labels;
  {
    Span span(spans, "core.estimate");
    if (certifier == Certifier::kBase) {
      solution = core::BaselineOptimizer().Optimize(&ctx, kReq);
    } else if (certifier == Certifier::kSamp) {
      core::PartialSamplingOptions options;
      options.seed = kSamplingSeed;
      solution = core::PartialSamplingOptimizer(options).Optimize(&ctx, kReq);
    } else if (certifier == Certifier::kHybr) {
      core::HybridOptions options;
      options.sampling.seed = kSamplingSeed;
      solution = core::HybridOptimizer(options).Optimize(&ctx, kReq);
    } else {
      // RISK labels as it certifies, so it returns labels, not a solution.
      core::RiskAwareOptions options;
      options.sampling.seed = kSamplingSeed;
      auto outcome = core::RiskAwareOptimizer(options).Resolve(&ctx, kReq);
      if (outcome.ok()) {
        labels = std::move(outcome->resolution.labels);
        solution = outcome->solution;
      } else {
        solution = outcome.status();
      }
    }
  }
  if (!report->Check(solution.ok(), name + " certification returned OK")) {
    return {};
  }
  if (certifier != Certifier::kRisk) {
    Span span(spans, "core.label");
    labels = core::ApplySolution(partition, *solution, &oracle).labels;
  }
  if (cluster) {
    Span span(spans, "entity.cluster");
    const auto clusters = entity::EntityClustering::FromLabels(w, labels);
    report->Add("entity.entities",
                static_cast<double>(clusters.num_entities()));
    report->Mix(clusters.Checksum());
  }
  AddHumanCost(name, oracle.CostFraction(), report);
  report->Mix(oracle.cost());
  if (!layer_counts) return labels;

  const core::CacheStats& stats = ctx.stats();
  report->Add("pairs_certified", static_cast<double>(w.size()));
  report->Add("core.label.machine_pairs",
              static_cast<double>(w.size() - oracle.cost()));
  report->Add("core.oracle.requests",
              static_cast<double>(oracle.total_requests()));
  report->Add("core.oracle.duplicates",
              static_cast<double>(oracle.duplicate_requests()));
  report->Add("core.estimate.cache_hits",
              static_cast<double>(stats.full_label_hits + stats.stratum_hits));
  report->Add("core.estimate.cache_lookups",
              static_cast<double>(stats.full_label_hits + stats.stratum_hits +
                                  stats.full_label_misses +
                                  stats.stratum_misses));
  report->Add("gp.grid_fits", static_cast<double>(stats.gp_grid_fits));
  report->Add("gp.warm_starts", static_cast<double>(stats.gp_warm_starts));
  report->Add("gp.rows_appended", static_cast<double>(stats.gp_rows_appended));
  if (const auto outcome = ctx.sampling_outcome()) {
    report->Add("core.estimate.sampled_subsets",
                static_cast<double>(std::count(outcome->sampled.begin(),
                                               outcome->sampled.end(), true)));
  }
  return labels;
}

void CountQuality(double precision, double recall, Report* report) {
  report->Add("quality_checked", 1);
  if (precision >= kReq.alpha && recall >= kReq.beta) {
    report->Add("quality_met", 1);
  }
}

/// Scores one certification's labels against the ground truth and folds them
/// into the output digest. Runs outside the timed resolve.
void CheckQuality(const data::Workload& w, const std::vector<int>& labels,
                  Report* report) {
  if (labels.empty()) return;  // the failed certification is already counted
  report->MixLabels(labels);
  const eval::Quality q = eval::QualityOf(w, labels);
  CountQuality(q.precision, q.recall, report);
}

/// pairs-1m: DS-shaped columns straight into Workload::FromColumns, then
/// partition -> SAMP -> ApplySolution -> FromLabels. Estimation-heavy.
void RunPairs(const Options& options, SpanRecorder* spans, Report* report) {
  data::ScaleWorkloadConfig config;
  config.num_pairs = kPairsSize;
  config.seed = InputSeed(options.seed, options.rep, 0);
  data::ScaleColumns columns = data::GenerateScaleColumns(config);
  report->setup_s = SecondsSince(kProcessStart);

  data::Workload w;
  std::vector<int> labels;
  {
    Span resolve(spans, "resolve");
    const Clock::time_point start = Clock::now();
    {
      Span span(spans, "data.build");
      w = data::Workload::FromColumns(
          std::move(columns.left_ids), std::move(columns.right_ids),
          std::move(columns.similarities), std::move(columns.labels));
    }
    core::SubsetPartition partition;
    {
      Span span(spans, "core.partition");
      partition = core::SubsetPartition(&w, kSubsetSize);
    }
    labels = Certify(Certifier::kSamp, w, partition, true, true, spans,
                     report);
    report->resolve_s += SecondsSince(start);
  }
  CheckQuality(w, labels, report);
  report->inputs = 1;
}

/// records-1m: perturbed record tables -> tokenize + TF-IDF -> MinHash/LSH
/// blocking -> partition -> SAMP -> label -> cluster. Front-end-heavy.
/// Quality and blocking recall are measured against the tables' match set
/// (every cross-table pair of one entity), so a blocker that drops matches
/// shows up as lost recall.
void RunRecords(const Options& options, SpanRecorder* spans, Report* report) {
  data::ScaleTablesConfig config;
  config.groups = kRecordsCandidates / 64;
  config.left_per_group = 8;
  config.right_per_group = 8;
  config.perturb_names = true;
  config.seed = InputSeed(options.seed, options.rep, 0);
  const data::ScaleTables tables = data::GenerateScaleTables(config);
  std::unordered_map<uint32_t, size_t> right_per_entity;
  for (const data::Record& r : tables.right.records()) {
    ++right_per_entity[r.entity_id];
  }
  size_t true_matches = 0;
  for (const data::Record& l : tables.left.records()) {
    const auto it = right_per_entity.find(l.entity_id);
    if (it != right_per_entity.end()) true_matches += it->second;
  }
  report->setup_s = SecondsSince(kProcessStart);

  data::Workload w;
  std::vector<int> labels;
  {
    Span resolve(spans, "resolve");
    const Clock::time_point start = Clock::now();
    data::RecordColumns left_cols, right_cols;
    {
      Span span(spans, "data.tokenize");
      text::TokenDictionary dict;
      left_cols = data::RecordColumns::Build(tables.left, 1, &dict);
      right_cols = data::RecordColumns::Build(tables.right, 1, &dict);
      text::TfIdfModel model;
      model.FitDictionary(dict);
      left_cols.AttachTfIdf(model);
      right_cols.AttachTfIdf(model);
    }
    {
      Span span(spans, "data.block");
      w = data::MinHashLshBlock(tables.left, tables.right, left_cols,
                                right_cols, data::MinHashLshOptions{},
                                text::IdSetMetric::kJaccard,
                                kRecordsThreshold);
    }
    core::SubsetPartition partition;
    {
      Span span(spans, "core.partition");
      partition = core::SubsetPartition(&w, kSubsetSize);
    }
    labels = Certify(Certifier::kSamp, w, partition, true, true, spans,
                     report);
    report->resolve_s += SecondsSince(start);
  }

  const size_t blocked_matches = w.CountMatches();
  report->Add("data.block_pairs", static_cast<double>(w.size()));
  report->Add("data.block_matches", static_cast<double>(blocked_matches));
  report->Add("data.true_matches", static_cast<double>(true_matches));
  const double recall =
      true_matches ? static_cast<double>(blocked_matches) / true_matches : 1.0;
  report->Check(recall >= kRecordsRecallFloor, "data.block_recall >= 0.95");
  if (!labels.empty()) {
    report->MixLabels(labels);
    size_t predicted = 0, correct = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == 1) {
        ++predicted;
        correct += w.IsMatch(i) ? 1 : 0;
      }
    }
    CountQuality(predicted ? static_cast<double>(correct) / predicted : 1.0,
                 true_matches ? static_cast<double>(correct) / true_matches
                              : 1.0,
                 report);
  }
  report->inputs = 1;
}

/// paper-ab / paper-ds: full-size calibrated realizations, each certified by
/// the paper's BASE, SAMP and HYBR at (0.9, 0.9, 0.9) (Fig. 6). The first
/// kPaperRiskPerRep are also certified by RISK (r-HUMO), outside the timed
/// resolve: RISK's time follows how much of DH it ends up inspecting, which
/// swings with the realization, while its human cost is an exact count. The output here is human cost and
/// certificate quality, so labels are not clustered.
void RunPaper(const Options& options, bool ab, SpanRecorder* spans,
              Report* report) {
  const size_t count = ab ? kPaperAbPerRep : kPaperDsPerRep;
  std::vector<data::Workload> inputs;
  inputs.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const uint64_t seed = InputSeed(options.seed, options.rep, k);
    inputs.push_back(data::SimulatePairs(ab ? data::AbConfig(seed)
                                            : data::DsConfig(seed)));
  }
  report->setup_s = SecondsSince(kProcessStart);

  const Certifier certifiers[] = {Certifier::kBase, Certifier::kSamp,
                                  Certifier::kHybr};
  SpanRecorder untraced(false);
  for (size_t k = 0; k < inputs.size(); ++k) {
    const data::Workload& w = inputs[k];
    std::vector<std::vector<int>> labels;
    core::SubsetPartition partition;
    {
      Span resolve(spans, "resolve");
      const Clock::time_point start = Clock::now();
      {
        Span span(spans, "core.partition");
        partition = core::SubsetPartition(&w, kSubsetSize);
      }
      for (const Certifier c : certifiers) {
        labels.push_back(Certify(c, w, partition, false, true, spans, report));
      }
      report->resolve_s += SecondsSince(start);
    }
    if (k < kPaperRiskPerRep) {
      labels.push_back(Certify(Certifier::kRisk, w, partition, false, false,
                               &untraced, report));
    }
    for (const std::vector<int>& l : labels) CheckQuality(w, l, report);
    ++report->inputs;
  }
}

/// The out-of-band review burst at epoch `e`, shared by the service run
/// (EnqueueReview) and the synchronous reference (direct preloads).
std::vector<data::InstancePair> ReviewBurst(size_t e,
                                            const data::Workload& base) {
  std::vector<data::InstancePair> burst;
  if (e % 4 != 1) return burst;
  for (size_t k = 0; k < 8; ++k) {
    burst.push_back(base[(e * 7919 + k * 104729) % base.size()]);
  }
  return burst;
}

/// The synchronous reference of the serve workload: the bare streaming
/// resolver driven through the same shard, certification and review
/// schedule, so the drained service must equal it bit for bit.
Result<core::StreamingCertificate> RunSynchronous(
    const data::Workload& base, std::vector<data::Shard> shards,
    const core::StreamingOptions& options) {
  core::StreamingResolver resolver(options, kReq);
  for (size_t e = 0; e < shards.size(); ++e) {
    if (e == kServeMidCertShard) {
      auto mid = resolver.Certify();
      if (!mid.ok()) return mid.status();
    }
    for (const data::InstancePair& pair : ReviewBurst(e, base)) {
      const size_t idx = resolver.cumulative().IndexOfSorted(pair);
      if (idx >= resolver.cumulative().size() ||
          resolver.oracle().WasAsked(idx)) {
        continue;  // the skip rules of ResolutionService::EnqueueReview
      }
      resolver.PreloadEvidence(pair, resolver.oracle().InlineAnswer(idx));
    }
    resolver.Ingest(std::move(shards[e]));
  }
  return resolver.Certify();
}

struct ReaderResult {
  size_t lookups = 0;
  bool consistent = true;
  uint64_t sink = 0;  // keeps the lookups observable
  std::vector<uint32_t> snapshot_ns;
};

/// One reader: pins a snapshot, validates it the first time its version is
/// seen, checks versions never go backwards, then runs a burst of 256
/// LabelOf + 32 EntityOf against it.
void ReadLoop(const core::ResolutionService& service,
              const std::atomic<bool>& running, bool timed, size_t reader,
              ReaderResult* out) {
  size_t last_version = 0;
  size_t validated_version = SIZE_MAX;
  size_t index = reader * 127 + 1;
  while (running.load(std::memory_order_acquire)) {
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    const std::shared_ptr<const core::ResolutionSnapshot> snap =
        service.snapshot();
    if (timed) {
      out->snapshot_ns.push_back(static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
    }
    if (snap->version() < last_version ||
        snap->labels().size() != snap->pairs()) {
      out->consistent = false;
      return;
    }
    last_version = snap->version();
    if (snap->version() != validated_version) {
      if (!snap->Validate()) {
        out->consistent = false;
        return;
      }
      validated_version = snap->version();
    }
    const size_t n = snap->pairs();
    if (n == 0) continue;
    const uint32_t* left_ids = snap->workload().left_id_data();
    for (size_t t = 0; t < 256; ++t) {
      index = (index * 2654435761u + 1) % n;
      out->sink += static_cast<uint64_t>(snap->LabelOf(index));
    }
    for (size_t t = 0; t < 32; ++t) {
      index = (index * 2654435761u + 1) % n;
      out->sink += snap->EntityOf({0, left_ids[index]}).value_or(0);
    }
    out->lookups += 288;
  }
}

double Percentile(std::vector<uint32_t>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t k = std::min(values->size() - 1,
                            static_cast<size_t>(q * values->size()));
  std::nth_element(values->begin(), values->begin() + k, values->end());
  return (*values)[k];
}

/// serve-100k: a DS-shaped workload streamed through ResolutionService in
/// 64 shards, with RISK certification at shard 8 and at drain, review
/// bursts every 4th epoch, one crowd worker, and one reader doing lookup
/// bursts on pinned snapshots for the whole mutate phase.
void RunServe(const Options& options, SpanRecorder* spans, Report* report) {
  data::ScaleWorkloadConfig config;
  config.num_pairs = kServePairs;
  config.seed = InputSeed(options.seed, options.rep, 0);
  const data::Workload base = data::GenerateScaleWorkload(config);
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = kServeShards;
  const data::WorkloadStream stream(&base, stream_options);
  std::vector<data::Shard> shards;
  std::vector<std::vector<data::InstancePair>> bursts;
  for (size_t e = 0; e < kServeShards; ++e) {
    shards.push_back(stream.ShardAt(e));
    bursts.push_back(ReviewBurst(e, base));
  }
  // The synchronous reference costs about as much as the service run, so
  // it runs on the first repetition of a run and on every traced one.
  const bool reference = options.rep == 0 || spans->enabled();
  std::vector<data::Shard> sync_shards;
  if (reference) sync_shards = shards;  // the service consumes its own copy
  core::StreamingOptions streaming;
  streaming.certifier = core::StreamCertifier::kRisk;
  streaming.sampling.seed = kSamplingSeed;
  core::ResolutionServiceOptions service_options;
  service_options.streaming = streaming;
  service_options.crowd_workers = kServeCrowdWorkers;
  core::ResolutionService service(service_options, kReq);

  std::atomic<bool> running{true};
  std::vector<ReaderResult> readers(kServeReaders);
  std::vector<std::thread> reader_threads;
  for (size_t i = 0; i < kServeReaders; ++i) {
    reader_threads.emplace_back(ReadLoop, std::cref(service),
                                std::cref(running), spans->enabled(), i,
                                &readers[i]);
  }

  auto request_certification = [&] {
    {
      Span span(spans, "core.serve.review");
      service.WaitForReviewDelivery();
    }
    Span span(spans, "core.serve.request_cert");
    const Clock::time_point t0 = Clock::now();
    report->Check(service.RequestCertification(),
                  "certification request accepted");
    report->Sample("core.serve.request_cert_ms", SecondsSince(t0) * 1e3);
  };

  report->setup_s = SecondsSince(kProcessStart);
  Result<core::StreamingCertificate> cert = Status::Internal("not drained");
  {
    Span resolve(spans, "resolve");
    const Clock::time_point start = Clock::now();
    for (size_t e = 0; e < kServeShards; ++e) {
      if (e == kServeMidCertShard) request_certification();
      if (!bursts[e].empty()) {
        Span span(spans, "core.serve.review");
        service.EnqueueReview(bursts[e]);
      }
      const Clock::time_point t0 = Clock::now();
      {
        Span span(spans, "core.serve.ingest");
        service.Ingest(std::move(shards[e]));
      }
      report->Sample("ingest_ms", SecondsSince(t0) * 1e3);
    }
    request_certification();
    {
      Span span(spans, "core.serve.drain");
      cert = service.DrainToQuiescence();
    }
    report->resolve_s = SecondsSince(start);
  }
  running.store(false, std::memory_order_release);
  for (std::thread& t : reader_threads) t.join();
  report->inputs = 1;

  bool readers_consistent = true;
  std::vector<uint32_t> snapshot_ns;
  for (ReaderResult& r : readers) {
    readers_consistent = readers_consistent && r.consistent;
    report->Add("lookups", static_cast<double>(r.lookups));
    snapshot_ns.insert(snapshot_ns.end(), r.snapshot_ns.begin(),
                       r.snapshot_ns.end());
  }
  report->Check(readers_consistent,
                "reader snapshots validate with non-decreasing versions");
  if (spans->enabled()) {
    report->Add("core.serve.snapshot_ns.p50", Percentile(&snapshot_ns, 0.50));
    report->Add("core.serve.snapshot_ns.p99", Percentile(&snapshot_ns, 0.99));
  }
  report->Add("core.serve.snapshots",
              static_cast<double>(service.snapshots_published()));
  report->Add("core.serve.reviews_folded",
              static_cast<double>(service.reviews_folded()));
  if (!report->Check(cert.ok(), "drained certificate returned OK")) return;

  if (reference) {
    const Clock::time_point sync_start = Clock::now();
    const auto sync = RunSynchronous(base, std::move(sync_shards), streaming);
    report->Add("core.stream.sync_s", SecondsSince(sync_start));
    if (report->Check(sync.ok(), "synchronous reference returned OK")) {
      report->Check(cert->resolution.labels == sync->resolution.labels &&
                        cert->solution.empty == sync->solution.empty &&
                        cert->solution.h_lo == sync->solution.h_lo &&
                        cert->solution.h_hi == sync->solution.h_hi &&
                        cert->certified == sync->certified &&
                        cert->total_inspections == sync->total_inspections,
                    "drained service == synchronous resolver");
    }
  }

  const auto snap = service.snapshot();
  report->Check(snap->Validate(), "final snapshot validates");
  const uint64_t cold =
      entity::EntityClustering::FromLabels(snap->workload(), snap->labels())
          .Checksum();
  report->Check(snap->entities().Checksum() == cold,
                "snapshot entities == cold FromLabels");

  const double pairs = static_cast<double>(base.size());
  AddHumanCost("risk", cert->total_inspections / pairs, report);
  report->Add("pairs_certified", pairs);
  report->Add("core.label.machine_pairs", pairs - cert->total_inspections);
  report->Add("entity.entities", static_cast<double>(snap->num_entities()));
  const data::Workload& cumulative =
      service.resolver_unsynchronized().cumulative();
  CheckQuality(cumulative, cert->resolution.labels, report);
  report->Mix(cert->total_inspections);
  report->Mix(cold);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N --rep R "
               "[--threads T] [--trace FILE]\n"
               "       bench_e2e --info\n"
               "workloads: pairs-1m records-1m serve-100k paper-ab "
               "paper-ds\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--info") {
      std::printf("{\"build_type\": \"%s\", \"avx2\": %s}\n",
                  HUMO_E2E_BUILD_TYPE,
                  text::internal::CpuHasAvx2() ? "true" : "false");
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (!ParseUnsigned(value, &number)) {
      return Usage();
    } else if (flag == "--seed") {
      options.seed = number;
    } else if (flag == "--rep") {
      options.rep = static_cast<size_t>(number);
    } else if (flag == "--threads") {
      options.threads = static_cast<size_t>(number);
    } else {
      return Usage();
    }
  }
  if (std::string(HUMO_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "bench_e2e: refusing a %s build; timings need "
                 "Release\n", HUMO_E2E_BUILD_TYPE);
    return 2;
  }
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  if (options.threads == 0 || options.threads > hardware) {
    std::fprintf(stderr, "bench_e2e: --threads must be in [1, %zu]\n",
                 hardware);
    return 2;
  }

  const bool serve = options.workload == "serve-100k";
  // The serve workload leaves the cores to its reader and crowd worker.
  ThreadPool::SetGlobalThreads(serve ? 1 : options.threads);
  SpanRecorder spans(!options.trace_path.empty());
  Report report;
  if (options.workload == "pairs-1m") {
    RunPairs(options, &spans, &report);
  } else if (options.workload == "records-1m") {
    RunRecords(options, &spans, &report);
  } else if (serve) {
    RunServe(options, &spans, &report);
  } else if (options.workload == "paper-ab" ||
             options.workload == "paper-ds") {
    RunPaper(options, options.workload == "paper-ab", &spans, &report);
  } else {
    return Usage();
  }
  if (spans.enabled()) {
    report.Check(spans.WriteChromeTrace(options.trace_path, options.rep),
                 "trace written");
  }
  report.Print(options, PeakRssMb());
  return 0;
}
