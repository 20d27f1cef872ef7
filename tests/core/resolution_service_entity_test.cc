#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/resolution_service.h"
#include "data/pair_simulator.h"
#include "data/workload_stream.h"
#include "entity/entity_clustering.h"

namespace humo {
namespace {

using entity::EntityClustering;
using entity::RecordRef;

/// The snapshot's ENTITY VIEW rides the same RCU publish as the labels:
/// wait-free EntityOf reads must stay internally consistent
/// (checksummed, version-monotonic, agreeing with the served labels) while
/// ingest and certification churn underneath.
class ResolutionServiceEntityTest : public ::testing::Test {
 protected:
  static data::Workload ds_;

  static void SetUpTestSuite() {
    ds_ = data::SimulatePairs(data::DsConfigSmall(555, 8000));
  }
};

data::Workload ResolutionServiceEntityTest::ds_;

core::ResolutionServiceOptions ServiceOptions() {
  core::ResolutionServiceOptions options;
  options.streaming.sampling.seed = 21;
  return options;
}

/// One snapshot's entity view must agree with its labels. The simulated
/// workloads give every pair its own two records (left source 0, right
/// source 1), so label 1 <=> same entity with no transitive shortcuts.
void CheckSnapshotEntityView(const core::ResolutionSnapshot& snap) {
  ASSERT_TRUE(snap.Validate());
  const EntityClustering& entities = snap.entities();
  ASSERT_EQ(entities.num_records() == 0, snap.pairs() == 0);
  if (snap.pairs() == 0) return;

  const data::Workload& w = snap.workload();
  const size_t probes[] = {0, snap.pairs() / 3, snap.pairs() / 2,
                           snap.pairs() - 1};
  for (const size_t i : probes) {
    const data::InstancePair pair = w[i];
    const RecordRef left{0, pair.left_id};
    const RecordRef right{1, pair.right_id};
    const auto el = snap.EntityOf(left);
    const auto er = snap.EntityOf(right);
    ASSERT_TRUE(el.has_value());
    ASSERT_TRUE(er.has_value());
    ASSERT_EQ(*el == *er, snap.LabelOf(i) == 1) << "pair " << i;
  }
  // Degree-1 records: every match merges two singletons and nothing else,
  // so each match label removes exactly one entity.
  const size_t matches = static_cast<size_t>(
      std::count(snap.labels().begin(), snap.labels().end(), 1));
  ASSERT_EQ(entities.num_records(), 2 * snap.pairs());
  ASSERT_EQ(snap.num_entities(), entities.num_records() - matches);
}

TEST_F(ResolutionServiceEntityTest, EntityViewConsistentUnderConcurrentIngest) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 40;
  data::WorkloadStream stream(&ds_, stream_options);

  core::ResolutionService service(ServiceOptions(), req);

  constexpr size_t kReaders = 3;
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
        ASSERT_GE(snap->version(), last_version);
        last_version = snap->version();
        CheckSnapshotEntityView(*snap);
        ++count;
      }
      lookups.fetch_add(count, std::memory_order_relaxed);
    });
  }

  for (size_t e = 0; e < stream.num_shards(); ++e) {
    service.Ingest(stream.ShardAt(e));
    if (e == 20) {
      ASSERT_TRUE(service.RequestCertification());
    }
  }
  ASSERT_TRUE(service.RequestCertification());
  auto cert = service.DrainToQuiescence();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(cert.ok()) << cert.status().message();
  EXPECT_GT(lookups.load(), 0u);

  // Quiescent state: the served entity view is exactly the canonical
  // clustering of the served labels — rebuildable bit-for-bit.
  const auto snap = service.snapshot();
  CheckSnapshotEntityView(*snap);
  const EntityClustering rebuilt =
      EntityClustering::FromLabels(snap->workload(), snap->labels());
  EXPECT_EQ(rebuilt, snap->entities());
  EXPECT_EQ(rebuilt.Checksum(), snap->entities().Checksum());
}

/// Every published snapshot's entity view equals a cold clustering of its
/// own workload and labels, and snapshots of one unchanged workload share
/// the workload copy and the record-key array. The writer is driven from
/// one thread and every certification publishes before its request
/// returns, so every version is seen.
TEST_F(ResolutionServiceEntityTest, EverySnapshotEqualsColdClustering) {
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 12;
  data::WorkloadStream stream(&ds_, stream_options);
  core::ResolutionService service(ServiceOptions(), {0.9, 0.9, 0.9});

  std::shared_ptr<const core::ResolutionSnapshot> last;
  size_t shared = 0;
  const auto check_next = [&service, &last, &shared] {
    const auto snap = service.snapshot();
    ASSERT_EQ(snap->version(), service.snapshots_published());
    ASSERT_EQ(snap->version(), last == nullptr ? 1 : last->version() + 1);
    ASSERT_TRUE(snap->Validate());
    const EntityClustering cold =
        EntityClustering::FromLabels(snap->workload(), snap->labels());
    ASSERT_EQ(snap->entities(), cold) << "version " << snap->version();
    ASSERT_EQ(snap->entities().Checksum(), cold.Checksum());
    if (last != nullptr && last->pairs() == snap->pairs()) {
      EXPECT_EQ(&last->workload(), &snap->workload());
      EXPECT_EQ(&last->entities().record_keys(),
                &snap->entities().record_keys());
      ++shared;
    }
    last = snap;
  };
  const auto review_burst = [](size_t e) {
    std::vector<data::InstancePair> burst;
    for (size_t k = 0; k < 16; ++k) {
      burst.push_back(ds_[(e * 7919 + k * 104729) % ds_.size()]);
    }
    return burst;
  };

  check_next();
  for (size_t e = 0; e < stream.num_shards(); ++e) {
    if (e == 6) {
      ASSERT_TRUE(service.RequestCertification());
      check_next();
    }
    if (e % 3 == 1) {
      service.EnqueueReview(review_burst(e));
    }
    service.Ingest(stream.ShardAt(e));
    check_next();
  }
  // An empty shard lands nothing: its snapshot shares the last copy.
  service.Ingest(data::Shard{});
  check_next();
  // Verdicts entered after the last publish make the drain publish once
  // more over the same workload. No mutation is in flight, so the resolver
  // can name the unanswered pairs the last snapshot labels wrongly (the
  // simulated reviewer is error-free: its verdict is the pair's truth).
  const core::StreamingResolver& resolver = service.resolver_unsynchronized();
  std::vector<data::InstancePair> corrected;
  for (size_t i = 0; i < last->pairs() && corrected.size() < 16; ++i) {
    const data::InstancePair pair = last->workload()[i];
    if (!resolver.oracle().WasAsked(i) &&
        last->LabelOf(i) != (pair.is_match ? 1 : 0)) {
      corrected.push_back(pair);
    }
  }
  ASSERT_FALSE(corrected.empty());
  ASSERT_EQ(service.EnqueueReview(corrected), corrected.size());
  ASSERT_TRUE(service.DrainToQuiescence().ok());
  check_next();
  // The drain publish refreshed the serving state, so it serves them.
  for (const data::InstancePair& pair : corrected) {
    const size_t idx = last->workload().IndexOfSorted(pair);
    ASSERT_EQ(last->LabelOf(idx), pair.is_match ? 1 : 0) << "pair " << idx;
  }
  ASSERT_TRUE(service.RequestCertification());
  check_next();
  EXPECT_EQ(shared, 4u);
}

TEST_F(ResolutionServiceEntityTest, EmptyServiceServesEmptyEntityView) {
  core::ResolutionService service(ServiceOptions(), {0.9, 0.9, 0.9});
  const auto snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->Validate());
  EXPECT_EQ(snap->num_entities(), 0u);
  EXPECT_EQ(snap->EntityOf({0, 0}), std::nullopt);
}

}  // namespace
}  // namespace humo
