// Streaming-vs-oneshot comparison for the epoch-based resolver: over an
// epochs x shard-size grid on the simulated DS and AB workloads, ingest the
// stream, certify, and compare against the one-shot SAMP run on the
// concatenated workload — oracle-cost ratio, wall-clock ratio, and the
// bit-identity of the final labeling.
//
// The bench *checks* the contracts it advertises and exits nonzero on any
// violation, so the committed BENCH_streaming.json cannot silently go
// stale:
//   * certify-once rows (any shard count/order): the streaming labeling
//     must be IDENTICAL to the one-shot SAMP labeling and the total
//     streaming oracle cost must not exceed the one-shot SAMP cost
//     (equality for the SAMP certifier, <= for RISK);
//   * re-certify rows (certificate mid-stream, another at the end): the
//     final certificate must again be identical to the one-shot run, and
//     its fresh cost must be strictly below the one-shot cost — the carried
//     evidence pays. The TOTAL across both certificates exceeds one-shot by
//     the mid-stream certificate's price; the row reports that ratio
//     honestly rather than enforcing it;
//   * the rows cover both modes and both certifiers (SAMP, RISK).
//
// Workloads: bench::ContractDs() and bench::ContractAb() (DS 20k, AB 60k)
// run the whole grid. SAMP inspects nearly every pair there, so their
// identical_labels mostly compares human answers with themselves. The full
// DS preset (DsConfig(555), 100,077 pairs, SAMP inspects 9,600) adds SAMP
// certify-once rows at 4 and 16 shuffled shards, where identical_labels
// compares machine labels too.

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;
using bench::MsSince;

namespace {

struct Row {
  std::string workload;
  std::string mode;       // certify_once | recertify
  std::string certifier;  // SAMP | RISK
  size_t shards = 0;
  std::string order;  // shuffled | ascending
  size_t pairs = 0;
  size_t oneshot_cost = 0;
  size_t streaming_cost = 0;      // lifetime distinct inspections
  size_t final_certify_cost = 0;  // fresh pairs of the last certification
  size_t reused_answers = 0;
  double cost_ratio = 0.0;
  bool identical_labels = false;
  double oneshot_ms = 0.0;
  double streaming_ms = 0.0;
  double wall_ratio = 0.0;
};

struct OneShot {
  core::HumoSolution solution;
  std::vector<int> labels;
  size_t cost = 0;
  double ms = 0.0;
};

OneShot RunOneShot(const data::Workload& w,
                   const core::QualityRequirement& req,
                   const core::PartialSamplingOptions& sampling) {
  const auto start = std::chrono::steady_clock::now();
  core::SubsetPartition partition(&w, 200);
  core::Oracle oracle(&w);
  core::EstimationContext ctx(&partition, &oracle);
  auto sol = core::PartialSamplingOptimizer(sampling).Optimize(&ctx, req);
  OneShot run;
  if (!sol.ok()) {
    std::fprintf(stderr, "one-shot SAMP failed: %s\n",
                 sol.status().message().c_str());
    std::exit(1);
  }
  run.solution = *sol;
  run.labels = core::ApplySolution(partition, *sol, &oracle).labels;
  run.cost = oracle.cost();
  run.ms = MsSince(start);
  return run;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_streaming — epoch-based streaming resolution vs one-shot HUMO",
      "ISSUE 4 streaming contracts on the Fig. 6 workloads (shard grid)");

  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::PartialSamplingOptions sampling;
  sampling.seed = bench::kBaseSeed;

  std::vector<Row> rows;
  bool contract_ok = true;

  struct Preset {
    const char* name;
    data::PairSimulatorConfig config;
    bool full_grid;  // false: the partial-cost certify-once rows only
  };
  const Preset presets[] = {
      {"DS", bench::ContractDs(), true},
      {"AB", bench::ContractAb(), true},
      {"DS", data::DsConfig(555), false},
  };
  for (const Preset& wl : presets) {
    const char* name = wl.name;
    const data::Workload base = data::SimulatePairs(wl.config);
    std::printf("%s: %zu pairs, %zu matches\n", name, base.size(),
                base.CountMatches());
    const OneShot oneshot = RunOneShot(base, req, sampling);

    auto stream_run = [&](size_t shards, data::ArrivalOrder order,
                          core::StreamCertifier certifier,
                          bool recertify) -> Row {
      Row row;
      row.workload = name;
      row.mode = recertify ? "recertify" : "certify_once";
      row.certifier =
          certifier == core::StreamCertifier::kSamp ? "SAMP" : "RISK";
      row.shards = shards;
      row.order = order == data::ArrivalOrder::kShuffled ? "shuffled"
                                                         : "ascending";
      row.pairs = base.size();
      row.oneshot_cost = oneshot.cost;
      row.oneshot_ms = oneshot.ms;

      const auto start = std::chrono::steady_clock::now();
      data::WorkloadStreamOptions stream_options;
      stream_options.num_shards = shards;
      stream_options.order = order;
      data::WorkloadStream stream(&base, stream_options);
      core::StreamingOptions options;
      options.certifier = certifier;
      options.sampling = sampling;
      core::StreamingResolver resolver(options, req);
      data::Shard shard;
      size_t ingested = 0;
      while (stream.Next(&shard)) {
        resolver.Ingest(std::move(shard));
        ++ingested;
        if (recertify && ingested == shards / 2) {
          if (!resolver.Certify().ok()) {
            std::fprintf(stderr, "mid-stream certify failed\n");
            std::exit(1);
          }
        }
      }
      auto cert = resolver.Certify();
      if (!cert.ok()) {
        std::fprintf(stderr, "final certify failed: %s\n",
                     cert.status().message().c_str());
        std::exit(1);
      }
      row.streaming_ms = MsSince(start);
      row.streaming_cost = cert->total_inspections;
      row.final_certify_cost = cert->fresh_inspections;
      row.reused_answers = cert->reused_answers;
      row.cost_ratio = oneshot.cost == 0
                           ? 0.0
                           : static_cast<double>(row.streaming_cost) /
                                 static_cast<double>(oneshot.cost);
      row.identical_labels = cert->resolution.labels == oneshot.labels;
      row.wall_ratio =
          oneshot.ms == 0.0 ? 0.0 : row.streaming_ms / oneshot.ms;

      if (resolver.total_duplicate_requests() != 0) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s %s shards=%zu issued %zu "
                     "duplicate oracle requests\n",
                     name, row.mode.c_str(), shards,
                     resolver.total_duplicate_requests());
        contract_ok = false;
      }
      return row;
    };

    // Certify-once grid: the headline bit-identity + cost contract.
    const std::vector<size_t> shard_counts =
        wl.full_grid ? std::vector<size_t>{1, 4, 16}
                     : std::vector<size_t>{4, 16};
    for (size_t shards : shard_counts) {
      Row row = stream_run(shards, data::ArrivalOrder::kShuffled,
                           core::StreamCertifier::kSamp, false);
      if (!row.identical_labels || row.streaming_cost != oneshot.cost) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s certify_once shards=%zu "
                     "identical=%d cost=%zu oneshot=%zu\n",
                     name, shards, row.identical_labels ? 1 : 0,
                     row.streaming_cost, oneshot.cost);
        contract_ok = false;
      }
      rows.push_back(row);
    }
    if (!wl.full_grid) continue;
    {
      Row row = stream_run(4, data::ArrivalOrder::kSimilarityAscending,
                           core::StreamCertifier::kSamp, false);
      if (!row.identical_labels || row.streaming_cost != oneshot.cost) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s ascending certify_once\n", name);
        contract_ok = false;
      }
      rows.push_back(row);
    }
    {
      // RISK certifier: same guarantee, at most one-shot SAMP's budget
      // (labels legitimately differ — low-risk DH pairs stay machine
      // labeled).
      Row row = stream_run(4, data::ArrivalOrder::kShuffled,
                           core::StreamCertifier::kRisk, false);
      if (row.streaming_cost > oneshot.cost) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s RISK streaming cost %zu > "
                     "one-shot SAMP %zu\n",
                     name, row.streaming_cost, oneshot.cost);
        contract_ok = false;
      }
      rows.push_back(row);
    }
    {
      // Re-certification: evidence reuse makes the final certificate
      // strictly cheaper than a cold run, and (shuffled merges, error-free
      // oracle) bit-identical to it.
      Row row = stream_run(4, data::ArrivalOrder::kShuffled,
                           core::StreamCertifier::kSamp, true);
      if (!row.identical_labels || row.final_certify_cost >= oneshot.cost) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s recertify identical=%d "
                     "final=%zu oneshot=%zu\n",
                     name, row.identical_labels ? 1 : 0,
                     row.final_certify_cost, oneshot.cost);
        contract_ok = false;
      }
      rows.push_back(row);
    }
  }

  std::printf("\n%-4s %-13s %-5s %7s %-10s %9s %9s %9s %8s %6s %6s\n", "wl",
              "mode", "cert", "shards", "order", "oneshot", "stream",
              "final", "reused", "ratio", "ident");
  for (const Row& r : rows) {
    std::printf("%-4s %-13s %-5s %7zu %-10s %9zu %9zu %9zu %8zu %6.3f %6s\n",
                r.workload.c_str(), r.mode.c_str(), r.certifier.c_str(),
                r.shards, r.order.c_str(), r.oneshot_cost, r.streaming_cost,
                r.final_certify_cost, r.reused_answers, r.cost_ratio,
                r.identical_labels ? "yes" : "no");
  }

  // Every run of the grid must show up: both modes, both certifiers.
  std::set<std::string> modes, certifiers;
  std::vector<bench::JsonObject> json_rows;
  for (const Row& r : rows) {
    modes.insert(r.mode);
    certifiers.insert(r.certifier);
    bench::JsonObject& out = json_rows.emplace_back();
    out.Set("workload", r.workload);
    out.Set("mode", r.mode);
    out.Set("certifier", r.certifier);
    out.Set("shards", r.shards);
    out.Set("order", r.order);
    out.Set("pairs", r.pairs);
    out.Set("oneshot_cost", r.oneshot_cost);
    out.Set("streaming_cost", r.streaming_cost);
    out.Set("final_certify_cost", r.final_certify_cost);
    out.Set("reused_answers", r.reused_answers);
    out.Set("cost_ratio", r.cost_ratio, 6);
    out.Set("identical_labels", r.identical_labels);
    out.Set("oneshot_ms", r.oneshot_ms, 2);
    out.Set("streaming_ms", r.streaming_ms, 2);
    out.Set("wall_ratio", r.wall_ratio, 3);
  }
  if (modes != std::set<std::string>{"certify_once", "recertify"} ||
      certifiers != std::set<std::string>{"SAMP", "RISK"}) {
    std::fprintf(stderr, "CONTRACT VIOLATION: a mode or certifier missing\n");
    contract_ok = false;
  }
  bench::JsonObject doc;
  doc.Set("bench", "streaming");
  doc.Set("alpha", req.alpha);
  doc.Set("beta", req.beta);
  doc.Set("theta", req.theta);
  doc.Set("results", json_rows);
  if (!bench::WriteBenchJson("BENCH_streaming.json", doc)) return 1;

  if (!contract_ok) {
    std::fprintf(stderr, "streaming contracts violated; see above\n");
    return 1;
  }
  std::printf("streaming contracts OK\n");
  return 0;
}
