#include "core/resolution_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/streaming_resolver.h"
#include "data/pair_simulator.h"
#include "data/workload_stream.h"

namespace humo {
namespace {

/// The serving-layer contracts (ISSUE 7): wait-free readers can never
/// observe a torn snapshot, and draining the service to quiescence — every
/// review delivered and folded, certification finished — reproduces the
/// synchronous StreamingResolver bit for bit: labels, solution, oracle
/// cost, certificate.
class ResolutionServiceTest : public ::testing::Test {
 protected:
  static data::Workload ds_;

  static void SetUpTestSuite() {
    ds_ = data::SimulatePairs(data::DsConfigSmall(555, 12000));
  }
};

data::Workload ResolutionServiceTest::ds_;

core::ResolutionServiceOptions DefaultServiceOptions(size_t crowd_workers) {
  core::ResolutionServiceOptions options;
  options.streaming.sampling.seed = 21;
  options.crowd_workers = crowd_workers;
  return options;
}

void ExpectCertsEqual(const core::StreamingCertificate& a,
                      const core::StreamingCertificate& b) {
  EXPECT_EQ(a.solution.empty, b.solution.empty);
  EXPECT_EQ(a.solution.h_lo, b.solution.h_lo);
  EXPECT_EQ(a.solution.h_hi, b.solution.h_hi);
  EXPECT_EQ(a.resolution.labels, b.resolution.labels);
  EXPECT_EQ(a.fresh_inspections, b.fresh_inspections);
  EXPECT_EQ(a.total_inspections, b.total_inspections);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.epoch, b.epoch);
}

TEST_F(ResolutionServiceTest, DrainIsBitIdenticalToSynchronousResolver) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  // Three review-delivery threads and none (delivery at submit) must both
  // be indistinguishable from the bare resolver after a drain.
  for (const size_t crowd : {size_t{0}, size_t{3}}) {
    SCOPED_TRACE("crowd=" + std::to_string(crowd));
    const core::ResolutionServiceOptions options =
        DefaultServiceOptions(crowd);
    data::WorkloadStreamOptions stream_options;
    stream_options.num_shards = 8;
    data::WorkloadStream stream(&ds_, stream_options);

    core::ResolutionService service(options, req);
    core::StreamingResolver reference(options.streaming, req);

    for (size_t e = 0; e < stream.num_shards(); ++e) {
      if (e == 4) {
        // Mid-stream certification. The service runs it on a background
        // thread over exactly the 4 ingested shards; the drain makes its
        // certificate comparable to the synchronous one.
        ASSERT_TRUE(service.RequestCertification());
        auto service_cert = service.DrainToQuiescence();
        auto reference_cert = reference.Certify();
        ASSERT_TRUE(service_cert.ok()) << service_cert.status().message();
        ASSERT_TRUE(reference_cert.ok());
        ExpectCertsEqual(*service_cert, *reference_cert);
      }
      service.Ingest(stream.ShardAt(e));
      reference.Ingest(stream.ShardAt(e));
    }

    ASSERT_TRUE(service.RequestCertification());
    auto service_cert = service.DrainToQuiescence();
    auto reference_cert = reference.Certify();
    ASSERT_TRUE(service_cert.ok()) << service_cert.status().message();
    ASSERT_TRUE(reference_cert.ok());
    ExpectCertsEqual(*service_cert, *reference_cert);

    // The resolver under the service went through the exact synchronous
    // schedule: full internal-state agreement, not just certificate-level.
    const core::StreamingResolver& inner = service.resolver_unsynchronized();
    EXPECT_EQ(inner.provisional_labels(), reference.provisional_labels());
    EXPECT_EQ(inner.total_inspections(), reference.total_inspections());
    EXPECT_EQ(inner.total_duplicate_requests(), 0u);

    // The published snapshot serves the certificate: current, consistent,
    // and every wait-free lookup agrees with the certified labels.
    const auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_TRUE(snap->Validate());
    EXPECT_EQ(snap->epochs_ingested(), stream.num_shards());
    EXPECT_EQ(snap->pairs(), ds_.size());
    EXPECT_TRUE(snap->quality().certified);
    EXPECT_EQ(snap->labels(), service_cert->resolution.labels);
    const size_t probe = ds_.size() / 2;
    EXPECT_EQ(snap->LabelOf(probe), service_cert->resolution.labels[probe]);
  }
}

TEST_F(ResolutionServiceTest, ReviewFoldInMatchesDirectPreload) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::ResolutionServiceOptions options = DefaultServiceOptions(2);
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 6;
  data::WorkloadStream stream(&ds_, stream_options);

  core::ResolutionService service(options, req);
  core::StreamingResolver reference(options.streaming, req);
  for (size_t e = 0; e < 3; ++e) {
    service.Ingest(stream.ShardAt(e));
    reference.Ingest(stream.ShardAt(e));
  }

  // Flag every 50th arrived pair for human review, plus one pair that has
  // not arrived yet (must be skipped, not answered for a wrong index).
  std::vector<data::InstancePair> review;
  const data::Workload& seen = reference.cumulative();
  for (size_t i = 0; i < seen.size(); i += 50) review.push_back(seen[i]);
  data::InstancePair unseen;
  unseen.left_id = 0xFFFFFF;
  unseen.right_id = 0xFFFFFF;
  unseen.similarity = 2.0;  // outside [0,1]: cannot collide with real pairs
  review.push_back(unseen);

  const size_t enqueued = service.EnqueueReview(review);
  EXPECT_EQ(enqueued, review.size() - 1);

  // Reference: the same evidence, seeded synchronously. The service computes
  // each verdict with Oracle::InlineAnswer, so the folded verdicts are these
  // exact values.
  for (const data::InstancePair& pair : review) {
    const size_t idx = seen.IndexOfSorted(pair);
    if (idx >= seen.size() || reference.oracle().WasAsked(idx)) continue;
    ASSERT_TRUE(
        reference.PreloadEvidence(pair, reference.oracle().InlineAnswer(idx)));
  }
  reference.RefreshServing();

  // Drain delivers and folds every outstanding verdict (no certification
  // ran yet, so the drain itself reports an error — evidence still folds).
  EXPECT_FALSE(service.DrainToQuiescence().ok());
  EXPECT_EQ(service.reviews_folded(), enqueued);
  EXPECT_EQ(service.resolver_unsynchronized().total_inspections(),
            reference.total_inspections());

  // The folded evidence survives the remaining (interior) merges and makes
  // certification bit-identical to the synchronous preloaded run — and
  // cheaper than a run without the reviews (answers get reused).
  for (size_t e = 3; e < stream.num_shards(); ++e) {
    service.Ingest(stream.ShardAt(e));
    reference.Ingest(stream.ShardAt(e));
  }
  ASSERT_TRUE(service.RequestCertification());
  auto service_cert = service.DrainToQuiescence();
  auto reference_cert = reference.Certify();
  ASSERT_TRUE(service_cert.ok()) << service_cert.status().message();
  ASSERT_TRUE(reference_cert.ok());
  ExpectCertsEqual(*service_cert, *reference_cert);
  EXPECT_GT(service_cert->reused_answers, 0u);
  EXPECT_EQ(service.resolver_unsynchronized().total_duplicate_requests(), 0u);

  // Re-reviewing an answered pair is a no-op, not a duplicate inspection.
  EXPECT_EQ(service.EnqueueReview({review[0]}), 0u);
}

/// ISSUE 7 stress satellite: readers spin on lookups across >= 100 epoch
/// swaps while shards ingest, reviews arrive, and certifications run;
/// every observed snapshot must be internally consistent.
TEST_F(ResolutionServiceTest, SnapshotStressUnderConcurrentMutation) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::ResolutionServiceOptions options = DefaultServiceOptions(2);
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 120;
  data::WorkloadStream stream(&ds_, stream_options);

  core::ResolutionService service(options, req);

  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<size_t> lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &done, &lookups] {
      size_t last_version = 0;
      size_t count = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = service.snapshot();
        ASSERT_NE(snap, nullptr);
        // Internal consistency: untorn (checksum over fields + labels),
        // self-agreeing sizes, monotonically advancing versions.
        ASSERT_TRUE(snap->Validate());
        ASSERT_EQ(snap->labels().size(), snap->pairs());
        ASSERT_GE(snap->version(), last_version);
        last_version = snap->version();
        if (snap->pairs() > 0) {
          const size_t mid = snap->pairs() / 2;
          const int label = snap->LabelOf(mid);
          ASSERT_TRUE(label == 0 || label == 1);
          const auto batch = snap->BatchLabels({0, mid, snap->pairs() - 1});
          ASSERT_EQ(batch[1], label);
        }
        ++count;
      }
      lookups.fetch_add(count, std::memory_order_relaxed);
    });
  }

  size_t reviews_enqueued = 0;
  for (size_t e = 0; e < stream.num_shards(); ++e) {
    service.Ingest(stream.ShardAt(e));
    if (e % 10 == 5) {
      // A small review burst against pairs that may or may not have
      // arrived; the service sorts that out. Nobody waits for delivery, so
      // verdicts land across later interior merges and certifications.
      std::vector<data::InstancePair> burst;
      for (size_t k = 0; k < 5; ++k) {
        burst.push_back(ds_[(e * 37 + k * 101) % ds_.size()]);
      }
      reviews_enqueued += service.EnqueueReview(burst);
    }
    if (e == 40) {
      ASSERT_TRUE(service.RequestCertification());
    }
    // The second request may race the first certification's final counter
    // store; a drop (false) is acceptable behavior, not a failure.
    if (e == 80) service.RequestCertification();
  }
  auto cert = service.DrainToQuiescence();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(cert.ok()) << cert.status().message();
  // One swap per ingest (plus the initial publish, certifications, and
  // review fold-ins): well past the 100-swap floor.
  EXPECT_GE(service.snapshots_published(), stream.num_shards() + 1);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_TRUE(service.snapshot()->Validate());
  // Every accepted review folds exactly once, however late it was
  // delivered: its pair was in the workload when accepted, and merges only
  // add pairs.
  EXPECT_GT(reviews_enqueued, 0u);
  EXPECT_EQ(service.reviews_folded(), reviews_enqueued);
}

TEST_F(ResolutionServiceTest, EdgeCases) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::ResolutionService service(DefaultServiceOptions(1), req);

  // The service is born serving: an empty but valid snapshot.
  const auto empty = service.snapshot();
  ASSERT_NE(empty, nullptr);
  EXPECT_TRUE(empty->Validate());
  EXPECT_EQ(empty->pairs(), 0u);
  EXPECT_EQ(empty->version(), 1u);
  EXPECT_FALSE(empty->quality().certified);

  // Draining before any certification is an error, not a hang.
  EXPECT_FALSE(service.DrainToQuiescence().ok());

  // Certifying an empty workload fails and the failure is reported by the
  // drain; the service stays usable.
  ASSERT_TRUE(service.RequestCertification());
  EXPECT_FALSE(service.DrainToQuiescence().ok());

  // Reviews against an empty service are all skipped.
  EXPECT_EQ(service.EnqueueReview({data::InstancePair{1, 2, 0.5, false}}),
            0u);

  // A tiny ingest publishes and serves.
  data::Shard tiny;
  for (uint32_t i = 0; i < 5; ++i) {
    tiny.pairs.push_back(
        {i, i + 100, 0.1 * static_cast<double>(i + 1), i >= 3});
  }
  const core::EpochReport report = service.Ingest(std::move(tiny));
  EXPECT_EQ(report.pairs_total, 5u);
  const auto snap = service.snapshot();
  EXPECT_EQ(snap->pairs(), 5u);
  EXPECT_GT(snap->version(), empty->version());
  EXPECT_TRUE(snap->Validate());

  // The pinned early snapshot is untouched by later publishes (RCU: old
  // epochs stay alive and valid for as long as a reader holds them).
  EXPECT_EQ(empty->pairs(), 0u);
  EXPECT_TRUE(empty->Validate());
}

}  // namespace
}  // namespace humo
