// Mixed-traffic serving bench for the always-on resolution service: N
// reader threads hammer wait-free pair-label lookups against the published
// snapshot while the write side ingests shards, folds review verdicts that
// two delivery threads hand over out of band, and runs RISK certifications
// on a background thread.
//
// The bench *checks* the contracts it advertises and exits nonzero on any
// violation, so the committed BENCH_serving.json cannot silently go stale:
//   * sustained lookup throughput across every reader must stay at or
//     above kLookupsPerSecFloor (1,000,000 lookups/sec) for the whole
//     mutate phase;
//   * every snapshot a reader observes validates (checksum + size
//     agreement) with monotonically advancing versions;
//   * after DrainToQuiescence, the service's certificate, labels, and
//     lifetime oracle cost are IDENTICAL to a synchronous StreamingResolver
//     driven through the same shard/certification/review schedule — out-of-
//     band review delivery changes when a verdict lands, never the result.
//
// Each row also records mutate_over_sync = mutate_ms / sync_ms: what the
// serving write side (snapshot publishes, review queue, concurrent readers)
// costs over the bare resolver on the same schedule. The regression gate
// holds it lower-better.
//
// Workloads: bench::ContractAb() at 60k and 200k pairs. Sanitizer builds
// (bench::kSanitized) run one 20k-pair row over 8 shards and check races
// and the exact contracts, not throughput: their lookup floor is 1/sec.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;
using bench::MsSince;

namespace {

// AB workload sizes, one row each.
const std::vector<size_t> kPairCounts =
    bench::kSanitized ? std::vector<size_t>{20000}
                      : std::vector<size_t>{60000, 200000};
// Shards per stream.
constexpr size_t kShards = bench::kSanitized ? 8 : 16;
// Reader threads.
constexpr size_t kReaders = 4;
// Review-delivery threads (ResolutionServiceOptions::crowd_workers).
constexpr size_t kCrowdWorkers = 2;
// Minimum sustained lookups/sec across every reader.
constexpr double kLookupsPerSecFloor = bench::kSanitized ? 1.0 : 1e6;

struct Row {
  std::string workload;
  size_t pairs = 0;
  size_t shards = 0;
  size_t readers = 0;
  size_t crowd_workers = 0;
  size_t lookups_total = 0;
  double mutate_ms = 0.0;
  double lookups_per_sec = 0.0;
  size_t snapshots_published = 0;
  size_t reviews_folded = 0;
  bool drained_equals_synchronous = false;
  bool snapshots_consistent = false;
  size_t streaming_cost = 0;
  size_t sync_cost = 0;
  bool certified = false;
  double sync_ms = 0.0;
  double mutate_over_sync = 0.0;
};

struct SyncRun {
  core::StreamingCertificate cert;
  size_t total_inspections = 0;
  double ms = 0.0;
};

/// The out-of-band review burst at epoch `e` — one schedule shared by the
/// service run (EnqueueReview) and the synchronous reference (direct
/// preloads), so both certify over the same evidence.
std::vector<data::InstancePair> ReviewBurst(size_t e,
                                            const data::Workload& base) {
  std::vector<data::InstancePair> burst;
  if (e % 4 != 1) return burst;
  for (size_t k = 0; k < 8; ++k) {
    burst.push_back(base[(e * 7919 + k * 104729) % base.size()]);
  }
  return burst;
}

/// The synchronous reference: the bare resolver driven through the same
/// shard + certification schedule, with the same review verdicts seeded by
/// direct preloads at the same epoch boundaries. The mirroring matters:
/// risk-aware inspection is evidence-driven, so a reference WITHOUT the
/// review answers can walk a different inspection path and certify
/// different labels — equality vs the service is only a by-construction
/// contract when both sides see the same evidence.
SyncRun RunSynchronous(const data::Workload& base,
                       const core::StreamingOptions& options,
                       const core::QualityRequirement& req, size_t shards) {
  const auto start = std::chrono::steady_clock::now();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = shards;
  data::WorkloadStream stream(&base, stream_options);
  core::StreamingResolver resolver(options, req);
  for (size_t e = 0; e < shards; ++e) {
    if (e == shards / 2) {
      if (!resolver.Certify().ok()) {
        std::fprintf(stderr, "sync mid-stream certify failed\n");
        std::exit(1);
      }
    }
    for (const data::InstancePair& pair : ReviewBurst(e, base)) {
      const size_t idx = resolver.cumulative().IndexOfSorted(pair);
      if (idx >= resolver.cumulative().size() ||
          resolver.oracle().WasAsked(idx)) {
        continue;  // same skip rules as ResolutionService::EnqueueReview
      }
      resolver.PreloadEvidence(pair, resolver.oracle().InlineAnswer(idx));
    }
    resolver.Ingest(stream.ShardAt(e));
  }
  auto cert = resolver.Certify();
  if (!cert.ok()) {
    std::fprintf(stderr, "sync final certify failed: %s\n",
                 cert.status().message().c_str());
    std::exit(1);
  }
  SyncRun run;
  run.cert = *cert;
  run.total_inspections = resolver.total_inspections();
  run.ms = MsSince(start);
  return run;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_serving — snapshot-isolated reads over the async-oracle "
      "resolution service",
      "ISSUE 7 serving contracts: wait-free lookups under mutation, "
      "drain == synchronous");

  const core::QualityRequirement req{0.9, 0.9, 0.9};

  std::vector<Row> rows;
  bool contract_ok = true;

  for (const size_t pairs : kPairCounts) {
    const data::Workload base = data::SimulatePairs(bench::ContractAb(pairs));
    std::printf("AB: %zu pairs, %zu matches, %zu shards, %zu readers, "
                "%zu crowd workers\n",
                base.size(), base.CountMatches(), kShards, kReaders,
                kCrowdWorkers);

    core::StreamingOptions streaming;
    streaming.certifier = core::StreamCertifier::kRisk;
    streaming.sampling.seed = bench::kBaseSeed;
    const SyncRun sync = RunSynchronous(base, streaming, req, kShards);

    Row row;
    row.workload = "AB";
    row.pairs = base.size();
    row.shards = kShards;
    row.readers = kReaders;
    row.crowd_workers = kCrowdWorkers;
    row.sync_cost = sync.total_inspections;
    row.sync_ms = sync.ms;

    core::ResolutionServiceOptions service_options;
    service_options.streaming = streaming;
    service_options.crowd_workers = kCrowdWorkers;
    core::ResolutionService service(service_options, req);

    data::WorkloadStreamOptions stream_options;
    stream_options.num_shards = kShards;
    data::WorkloadStream stream(&base, stream_options);

    std::atomic<bool> mutating{true};
    std::atomic<bool> snapshots_consistent{true};
    std::atomic<size_t> total_lookups{0};
    std::vector<std::thread> reader_threads;
    reader_threads.reserve(kReaders);
    for (size_t r = 0; r < kReaders; ++r) {
      reader_threads.emplace_back([&service, &mutating, &snapshots_consistent,
                                   &total_lookups, r] {
        size_t lookups = 0;
        size_t last_version = 0;
        size_t bursts = 0;
        while (mutating.load(std::memory_order_acquire)) {
          // RCU read side: pin one snapshot, run a burst of lookups
          // against its frozen storage, then move to the latest epoch.
          const auto snap = service.snapshot();
          if (snap->version() < last_version ||
              snap->labels().size() != snap->pairs()) {
            snapshots_consistent.store(false, std::memory_order_relaxed);
            break;
          }
          last_version = snap->version();
          // Validating every burst would halve throughput; spot-check.
          if (++bursts % 64 == 0 && !snap->Validate()) {
            snapshots_consistent.store(false, std::memory_order_relaxed);
            break;
          }
          const size_t n = snap->pairs();
          if (n == 0) continue;
          size_t acc = 0;
          size_t index = r * 127 + 1;
          for (size_t t = 0; t < 256; ++t) {
            index = (index * 2654435761u + 1) % n;
            acc += static_cast<size_t>(snap->LabelOf(index));
          }
          // Keep `acc` observable so the loop cannot be optimized away.
          if (acc > 256) std::abort();
          lookups += 256;
        }
        total_lookups.fetch_add(lookups, std::memory_order_relaxed);
      });
    }

    const auto mutate_start = std::chrono::steady_clock::now();
    for (size_t e = 0; e < kShards; ++e) {
      if (e == kShards / 2) {
        // Background certification over exactly the first half:
        // RequestCertification returns once the certifier owns the writer
        // lock, so the next Ingest serializes behind it. Waiting for review
        // delivery first pins the certified evidence set — the certifier's
        // boundary fold sees every review enqueued so far instead of
        // whatever subset the crowd workers happened to finish.
        service.WaitForReviewDelivery();
        service.RequestCertification();
      }
      const std::vector<data::InstancePair> burst = ReviewBurst(e, base);
      if (!burst.empty()) {
        // A review burst: out-of-band verdicts that fold at later epoch
        // boundaries (pairs that have not arrived yet are skipped).
        service.EnqueueReview(burst);
      }
      service.Ingest(stream.ShardAt(e));
    }
    service.WaitForReviewDelivery();
    service.RequestCertification();
    auto cert = service.DrainToQuiescence();
    row.mutate_ms = MsSince(mutate_start);
    row.mutate_over_sync = row.mutate_ms / row.sync_ms;
    mutating.store(false, std::memory_order_release);
    for (auto& t : reader_threads) t.join();

    if (!cert.ok()) {
      std::fprintf(stderr, "service certification failed: %s\n",
                   cert.status().message().c_str());
      return 1;
    }

    row.lookups_total = total_lookups.load();
    row.lookups_per_sec =
        row.mutate_ms > 0.0
            ? static_cast<double>(row.lookups_total) / (row.mutate_ms / 1e3)
            : 0.0;
    row.snapshots_published = service.snapshots_published();
    row.reviews_folded = service.reviews_folded();
    row.snapshots_consistent = snapshots_consistent.load();
    row.streaming_cost = cert->total_inspections;
    row.certified = cert->certified;

    // Drain-to-quiescence self-check. The synchronous reference performed
    // the SAME schedule — shards, certifications, and review evidence
    // (direct preloads at the burst boundaries, with WaitForReviewDelivery
    // pinning the service's fold points) — so the certificate must match
    // exactly: solution, labels, certified, and lifetime oracle cost
    // (Oracle::Preload is idempotent per pair, so duplicate-review timing
    // cannot shift the totals).
    const bool labels_equal =
        cert->resolution.labels == sync.cert.resolution.labels;
    const bool solution_equal =
        cert->solution.empty == sync.cert.solution.empty &&
        cert->solution.h_lo == sync.cert.solution.h_lo &&
        cert->solution.h_hi == sync.cert.solution.h_hi;
    const bool cost_equal = row.streaming_cost == row.sync_cost;
    row.drained_equals_synchronous =
        labels_equal && solution_equal && cost_equal &&
        cert->certified == sync.cert.certified;

    if (!row.drained_equals_synchronous) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: drained service != synchronous "
                   "(labels=%d solution=%d cost=%zu sync=%zu folded=%zu "
                   "certified=%d/%d)\n",
                   labels_equal ? 1 : 0, solution_equal ? 1 : 0,
                   row.streaming_cost, row.sync_cost, row.reviews_folded,
                   cert->certified ? 1 : 0, sync.cert.certified ? 1 : 0);
      contract_ok = false;
    }
    if (!row.snapshots_consistent) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: a reader observed an inconsistent "
                   "snapshot\n");
      contract_ok = false;
    }
    if (row.lookups_per_sec < kLookupsPerSecFloor) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: %.0f lookups/sec below the %.0f "
                   "floor\n",
                   row.lookups_per_sec, kLookupsPerSecFloor);
      contract_ok = false;
    }
    rows.push_back(row);
  }

  std::printf("\n%-4s %9s %7s %8s %6s %12s %10s %12s %6s %6s %6s\n", "wl",
              "pairs", "shards", "readers", "crowd", "lookups", "mutate_ms",
              "lookups/s", "snaps", "equal", "cert");
  for (const Row& r : rows) {
    std::printf("%-4s %9zu %7zu %8zu %6zu %12zu %10.1f %12.0f %6zu %6s %6s\n",
                r.workload.c_str(), r.pairs, r.shards, r.readers,
                r.crowd_workers, r.lookups_total, r.mutate_ms,
                r.lookups_per_sec, r.snapshots_published,
                r.drained_equals_synchronous ? "yes" : "no",
                r.certified ? "yes" : "no");
  }

  std::vector<bench::JsonObject> json_rows;
  for (const Row& r : rows) {
    bench::JsonObject& out = json_rows.emplace_back();
    out.Set("workload", r.workload);
    out.Set("pairs", r.pairs);
    out.Set("shards", r.shards);
    out.Set("readers", r.readers);
    out.Set("crowd_workers", r.crowd_workers);
    out.Set("lookups_total", r.lookups_total);
    out.Set("mutate_ms", r.mutate_ms, 2);
    out.Set("lookups_per_sec", r.lookups_per_sec, 0);
    out.Set("snapshots_published", r.snapshots_published);
    out.Set("reviews_folded", r.reviews_folded);
    out.Set("drained_equals_synchronous", r.drained_equals_synchronous);
    out.Set("snapshots_consistent", r.snapshots_consistent);
    out.Set("streaming_cost", r.streaming_cost);
    out.Set("sync_cost", r.sync_cost);
    out.Set("certified", r.certified);
    out.Set("sync_ms", r.sync_ms, 2);
    out.Set("mutate_over_sync", r.mutate_over_sync, 3);
  }
  bench::JsonObject doc;
  doc.Set("bench", "serving");
  doc.Set("alpha", req.alpha);
  doc.Set("beta", req.beta);
  doc.Set("theta", req.theta);
  doc.Set("results", json_rows);
  if (!bench::WriteBenchJson("BENCH_serving.json", doc)) return 1;

  if (!contract_ok) {
    std::fprintf(stderr, "serving contracts violated; see above\n");
    return 1;
  }
  std::printf("serving contracts OK\n");
  return 0;
}
