#include "core/resolution_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming_resolver.h"
#include "data/pair_simulator.h"
#include "data/workload_stream.h"

namespace humo {
namespace {

/// The serving-layer contracts: wait-free readers can never observe a torn
/// snapshot, and the service reproduces the synchronous StreamingResolver,
/// with the same review verdicts preloaded at the same points, bit for
/// bit: labels, solution, oracle cost, certificate.
class ResolutionServiceTest : public ::testing::Test {
 protected:
  static data::Workload ds_;

  static void SetUpTestSuite() {
    ds_ = data::SimulatePairs(data::DsConfigSmall(555, 12000));
  }
};

data::Workload ResolutionServiceTest::ds_;

core::ResolutionServiceOptions DefaultServiceOptions() {
  core::ResolutionServiceOptions options;
  options.streaming.sampling.seed = 21;
  return options;
}

/// A pair no workload holds: its similarity lies outside [0, 1].
data::InstancePair UnseenPair() {
  return data::InstancePair{0xFFFFFF, 0xFFFFFF, 2.0, false};
}

/// Preloads into `reference` what ResolutionService::EnqueueReview submits
/// for `pairs`: the oracle's verdict for every arrived, unanswered pair.
void PreloadLikeEnqueueReview(const std::vector<data::InstancePair>& pairs,
                              core::StreamingResolver* reference) {
  for (const data::InstancePair& pair : pairs) {
    const size_t idx = reference->cumulative().IndexOfSorted(pair);
    if (idx >= reference->cumulative().size() ||
        reference->oracle().WasAsked(idx)) {
      continue;
    }
    ASSERT_TRUE(reference->PreloadEvidence(
        pair, reference->oracle().InlineAnswer(idx)));
  }
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
  const core::ResolutionServiceOptions options = DefaultServiceOptions();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 8;
  data::WorkloadStream stream(&ds_, stream_options);

  core::ResolutionService service(options, req);
  core::StreamingResolver reference(options.streaming, req);

  for (size_t e = 0; e < stream.num_shards(); ++e) {
    if (e == 4) {
      // Mid-stream certification over exactly the 4 ingested shards; the
      // drain returns its certificate.
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

/// Reviews land between writer calls, so every published snapshot — not
/// only the drained one — equals the synchronous resolver with the same
/// verdicts preloaded at the same points: provisional labels after an
/// ingest, certificate labels after a certification.
TEST_F(ResolutionServiceTest, EverySnapshotEqualsTheSynchronousResolver) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::ResolutionServiceOptions options = DefaultServiceOptions();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 9;
  data::WorkloadStream stream(&ds_, stream_options);

  core::ResolutionService service(options, req);
  core::StreamingResolver reference(options.streaming, req);

  for (size_t e = 0; e < stream.num_shards(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    if (e == 5) {
      ASSERT_TRUE(service.RequestCertification());
      auto reference_cert = reference.Certify();
      ASSERT_TRUE(reference_cert.ok());
      const auto snap = service.snapshot();
      EXPECT_EQ(snap->labels(), reference_cert->resolution.labels);
      EXPECT_EQ(snap->quality().certified, reference_cert->certified);
    }
    if (e % 3 == 1) {
      // A simulated review burst, plus one reviewer verdict against the
      // truth on a pair that has arrived.
      std::vector<data::InstancePair> burst;
      for (size_t k = 0; k < 12; ++k) {
        burst.push_back(ds_[(e * 7919 + k * 104729) % ds_.size()]);
      }
      service.EnqueueReview(burst);
      PreloadLikeEnqueueReview(burst, &reference);
      const size_t idx = e * 31;
      const data::InstancePair wrong = reference.cumulative()[idx];
      if (!reference.oracle().WasAsked(idx)) {
        ASSERT_TRUE(service.SubmitReview(wrong, !wrong.is_match));
        ASSERT_TRUE(reference.PreloadEvidence(wrong, !wrong.is_match));
      }
    }
    service.Ingest(stream.ShardAt(e));
    reference.Ingest(stream.ShardAt(e));
    const auto snap = service.snapshot();
    ASSERT_TRUE(snap->Validate());
    EXPECT_EQ(snap->labels(), reference.provisional_labels());
    EXPECT_EQ(snap->quality().precision,
              reference.serving_report().est_precision);
    EXPECT_EQ(snap->quality().recall, reference.serving_report().est_recall);
  }

  ASSERT_TRUE(service.RequestCertification());
  auto service_cert = service.DrainToQuiescence();
  auto reference_cert = reference.Certify();
  ASSERT_TRUE(service_cert.ok()) << service_cert.status().message();
  ASSERT_TRUE(reference_cert.ok());
  ExpectCertsEqual(*service_cert, *reference_cert);
  EXPECT_EQ(service.snapshot()->labels(), reference_cert->resolution.labels);
}

/// A certification request is never dropped: a second request right after
/// the first runs too, over the same evidence, so it reuses every answer
/// the first bought and matches a resolver that certified twice.
TEST_F(ResolutionServiceTest, BackToBackCertificationRequestsBothRun) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  for (const core::StreamCertifier certifier :
       {core::StreamCertifier::kSamp, core::StreamCertifier::kRisk}) {
    SCOPED_TRACE(certifier == core::StreamCertifier::kSamp ? "SAMP" : "RISK");
    core::ResolutionServiceOptions options = DefaultServiceOptions();
    options.streaming.certifier = certifier;
    data::WorkloadStreamOptions stream_options;
    stream_options.num_shards = 4;
    data::WorkloadStream stream(&ds_, stream_options);

    core::ResolutionService service(options, req);
    core::StreamingResolver reference(options.streaming, req);
    for (size_t e = 0; e < 2; ++e) {
      service.Ingest(stream.ShardAt(e));
      reference.Ingest(stream.ShardAt(e));
    }

    const size_t published = service.snapshots_published();
    ASSERT_TRUE(service.RequestCertification());
    ASSERT_TRUE(service.RequestCertification());
    EXPECT_EQ(service.snapshots_published(), published + 2);

    auto service_cert = service.DrainToQuiescence();
    ASSERT_TRUE(reference.Certify().ok());
    auto reference_cert = reference.Certify();
    ASSERT_TRUE(service_cert.ok()) << service_cert.status().message();
    ASSERT_TRUE(reference_cert.ok());
    EXPECT_EQ(service_cert->fresh_inspections, 0u);
    ExpectCertsEqual(*service_cert, *reference_cert);
  }
}

TEST_F(ResolutionServiceTest, ReviewFoldInMatchesDirectPreload) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::ResolutionServiceOptions options = DefaultServiceOptions();
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
  review.push_back(UnseenPair());

  const size_t enqueued = service.EnqueueReview(review);
  EXPECT_EQ(enqueued, review.size() - 1);

  // Reference: the same evidence, seeded synchronously. The service computes
  // each verdict with Oracle::InlineAnswer, so the entered verdicts are
  // these exact values.
  PreloadLikeEnqueueReview(review, &reference);
  reference.RefreshServing();

  // Every accepted verdict is already in the resolver (no certification ran
  // yet, so the drain itself reports an error).
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

/// A reviewer's verdict is input, not a lookup of the truth: a verdict
/// that contradicts the truth is served verbatim and certified over exactly
/// like the same answer preloaded into a bare resolver.
TEST_F(ResolutionServiceTest,
       SubmittedVerdictIsServedEvenWhenItDisagreesWithTruth) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::ResolutionServiceOptions options = DefaultServiceOptions();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 6;
  data::WorkloadStream stream(&ds_, stream_options);

  core::ResolutionService service(options, req);
  core::StreamingResolver reference(options.streaming, req);
  for (size_t e = 0; e < 3; ++e) {
    service.Ingest(stream.ShardAt(e));
    reference.Ingest(stream.ShardAt(e));
  }

  std::vector<data::InstancePair> wrong;
  const data::Workload& seen = reference.cumulative();
  for (size_t i = 0; i < seen.size(); i += 97) wrong.push_back(seen[i]);
  for (const data::InstancePair& pair : wrong) {
    ASSERT_TRUE(service.SubmitReview(pair, !pair.is_match));
    ASSERT_TRUE(reference.PreloadEvidence(pair, !pair.is_match));
  }
  EXPECT_EQ(service.reviews_folded(), wrong.size());

  // A pair that has not arrived, and an answered pair (whatever the new
  // verdict), are rejected and change nothing.
  EXPECT_FALSE(service.SubmitReview(UnseenPair(), true));
  EXPECT_FALSE(service.SubmitReview(wrong[0], wrong[0].is_match));
  EXPECT_FALSE(service.SubmitReview(wrong[0], !wrong[0].is_match));
  EXPECT_EQ(service.reviews_folded(), wrong.size());

  // The next snapshot serves every wrong verdict as given.
  service.Ingest(stream.ShardAt(3));
  reference.Ingest(stream.ShardAt(3));
  const auto snap = service.snapshot();
  for (const data::InstancePair& pair : wrong) {
    const size_t idx = snap->workload().IndexOfSorted(pair);
    ASSERT_LT(idx, snap->pairs());
    EXPECT_EQ(snap->LabelOf(idx), pair.is_match ? 0 : 1) << "pair " << idx;
  }
  EXPECT_EQ(snap->labels(), reference.provisional_labels());

  for (size_t e = 4; e < stream.num_shards(); ++e) {
    service.Ingest(stream.ShardAt(e));
    reference.Ingest(stream.ShardAt(e));
  }
  ASSERT_TRUE(service.RequestCertification());
  auto service_cert = service.DrainToQuiescence();
  auto reference_cert = reference.Certify();
  ASSERT_TRUE(service_cert.ok()) << service_cert.status().message();
  ASSERT_TRUE(reference_cert.ok());
  ExpectCertsEqual(*service_cert, *reference_cert);
  EXPECT_EQ(service.resolver_unsynchronized().oracle().preloaded(),
            wrong.size());
}

/// A certified snapshot serves the certificate's labels, and the certificate
/// labels D+ and D- by rank: a verdict that contradicts the truth for a
/// pair that ends outside DH is held by the oracle but not served.
TEST_F(ResolutionServiceTest,
       SubmittedVerdictOutsideDhYieldsToTheCertificate) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 3;
  data::WorkloadStream stream(&ds_, stream_options);
  core::ResolutionService service(DefaultServiceOptions(), req);
  for (size_t e = 0; e < stream.num_shards(); ++e)
    service.Ingest(stream.ShardAt(e));

  // The highest-similarity match and the lowest-similarity non-match, each
  // reviewed as its opposite.
  const data::Workload& seen = service.snapshot()->workload();
  ASSERT_EQ(seen.size(), ds_.size());
  size_t top = seen.size() - 1, bottom = 0;
  while (!seen[top].is_match) --top;
  while (seen[bottom].is_match) ++bottom;
  ASSERT_TRUE(service.SubmitReview(seen[top], false));
  ASSERT_TRUE(service.SubmitReview(seen[bottom], true));

  ASSERT_TRUE(service.RequestCertification());
  auto cert = service.DrainToQuiescence();
  ASSERT_TRUE(cert.ok()) << cert.status().message();
  const auto snap = service.snapshot();
  ASSERT_TRUE(snap->quality().certified);
  ASSERT_FALSE(cert->solution.empty);
  const core::StreamingResolver& resolver = service.resolver_unsynchronized();
  const core::SubsetPartition& partition = resolver.partition();
  // `bottom` lies in D-, `top` in D+.
  EXPECT_LT(bottom, partition[cert->solution.h_lo].begin);
  EXPECT_GE(top, partition[cert->solution.h_hi].end);
  EXPECT_FALSE(resolver.oracle().CachedAnswer(top));
  EXPECT_TRUE(resolver.oracle().CachedAnswer(bottom));
  for (const size_t idx : {top, bottom}) {
    EXPECT_EQ(snap->LabelOf(idx), cert->resolution.labels[idx]) << idx;
  }
  EXPECT_EQ(snap->LabelOf(top), 1);
  EXPECT_EQ(snap->LabelOf(bottom), 0);
}

/// Stress: readers spin on lookups across >= 100 epoch swaps while the
/// writer ingests and certifies and a reviewer thread submits verdicts
/// concurrently; every observed snapshot must be internally consistent.
TEST_F(ResolutionServiceTest, SnapshotStressUnderConcurrentMutation) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::ResolutionServiceOptions options = DefaultServiceOptions();
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
        }
        ++count;
      }
      lookups.fetch_add(count, std::memory_order_relaxed);
    });
  }

  // The reviewer submits verdicts (every third one against the truth) for
  // pairs that may or may not have arrived; the service sorts that out.
  // Its verdicts land between the writer's ingests and certifications, at
  // times neither thread controls.
  std::atomic<bool> writing{true};
  size_t reviews_accepted = 0;
  std::thread reviewer([&] {
    for (size_t k = 0; writing.load(std::memory_order_acquire); ++k) {
      const data::InstancePair pair = ds_[(k * 101 + 37) % ds_.size()];
      const bool verdict = k % 3 == 0 ? !pair.is_match : pair.is_match;
      reviews_accepted += service.SubmitReview(pair, verdict) ? 1 : 0;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (size_t e = 0; e < stream.num_shards(); ++e) {
    service.Ingest(stream.ShardAt(e));
    if (e == 40 || e == 80) {
      ASSERT_TRUE(service.RequestCertification());
    }
  }
  writing.store(false, std::memory_order_release);
  reviewer.join();
  auto cert = service.DrainToQuiescence();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(cert.ok()) << cert.status().message();
  // One swap per ingest (plus the initial publish, certifications, and
  // the drain's publish): well past the 100-swap floor.
  EXPECT_GE(service.snapshots_published(), stream.num_shards() + 1);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_TRUE(service.snapshot()->Validate());
  // Every accepted review is entered exactly once: its pair was in the
  // workload when accepted, and merges only add pairs.
  EXPECT_GT(reviews_accepted, 0u);
  EXPECT_EQ(service.reviews_folded(), reviews_accepted);
  EXPECT_EQ(service.resolver_unsynchronized().oracle().preloaded(),
            reviews_accepted);
}

TEST_F(ResolutionServiceTest, EdgeCases) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::ResolutionService service(DefaultServiceOptions(), req);

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
  EXPECT_FALSE(service.SubmitReview(data::InstancePair{1, 2, 0.5, false},
                                    true));

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
