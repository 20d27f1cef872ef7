#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "data/workload.h"
#include "entity/entity_clustering.h"

namespace humo {
namespace {

using entity::ClusteringOptions;
using entity::EntityClustering;

constexpr ClusteringOptions kDedup{0, 0};

/// Structural invariants every clustering must satisfy, whatever the input.
void CheckClusteringInvariants(const EntityClustering& c) {
  ASSERT_EQ(c.entity_of_record().size(), c.num_records());
  ASSERT_TRUE(std::is_sorted(c.record_keys().begin(), c.record_keys().end()));
  // Canonical ids: in ascending record order each record either reuses an
  // id seen before or takes the next one, so the ids are exactly
  // 0 .. num_entities() - 1 and EntityOf agrees with the array.
  uint32_t next = 0;
  for (size_t r = 0; r < c.num_records(); ++r) {
    const uint32_t e = c.entity_of_record()[r];
    ASSERT_LE(e, next) << "record " << r;
    if (e == next) ++next;
    const uint64_t key = c.record_keys()[r];
    const entity::RecordRef ref{static_cast<uint32_t>(key >> 32),
                                static_cast<uint32_t>(key)};
    ASSERT_EQ(c.EntityOf(ref), std::optional<uint32_t>(e));
  }
  ASSERT_EQ(next, c.num_entities());
}

TEST(EntityFuzzTest, EmptyWorkload) {
  const data::Workload w;
  const EntityClustering c = EntityClustering::FromLabels(w, {}, kDedup);
  EXPECT_EQ(c.num_records(), 0u);
  EXPECT_EQ(c.num_entities(), 0u);
  EXPECT_EQ(c.EntityOf({0, 0}), std::nullopt);
  CheckClusteringInvariants(c);
}

TEST(EntityFuzzTest, OnlySelfPairs) {
  const data::Workload w({{0, 0, 0.1, false}, {1, 1, 0.5, true},
                          {2, 2, 0.9, false}});
  const std::vector<int> labels = w.GroundTruthLabels();
  const EntityClustering c = EntityClustering::FromLabels(w, labels, kDedup);
  EXPECT_EQ(c.num_records(), 3u);
  EXPECT_EQ(c.num_entities(), 3u);  // self edges never merge anything
  CheckClusteringInvariants(c);
}

TEST(EntityFuzzTest, AllMatchCollapsesToOneEntity) {
  std::vector<data::InstancePair> pairs;
  for (uint32_t i = 0; i < 30; ++i) {
    pairs.push_back({i, i + 1, 0.5 + 0.01 * i, true});
  }
  const data::Workload w(std::move(pairs));
  const EntityClustering c =
      EntityClustering::FromLabels(w, w.GroundTruthLabels(), kDedup);
  EXPECT_EQ(c.num_records(), 31u);
  EXPECT_EQ(c.num_entities(), 1u);
  EXPECT_EQ(std::count(c.entity_of_record().begin(),
                       c.entity_of_record().end(), 0u),
            31);
  CheckClusteringInvariants(c);
}

TEST(EntityFuzzTest, AllNonMatchStaysSingletons) {
  std::vector<data::InstancePair> pairs;
  for (uint32_t i = 0; i < 30; ++i) {
    pairs.push_back({i, i + 1, 0.5 + 0.01 * i, false});
  }
  const data::Workload w(std::move(pairs));
  const EntityClustering c =
      EntityClustering::FromLabels(w, w.GroundTruthLabels(), kDedup);
  EXPECT_EQ(c.num_entities(), c.num_records());
  CheckClusteringInvariants(c);
}

TEST(EntityFuzzTest, ConflictingDuplicateLabels) {
  // The same identity pair observed twice with contradictory labels
  // (distinct similarities keep the pairs distinct under PairLess).
  const data::Workload w({{0, 1, 0.4, false}, {0, 1, 0.8, true}});
  std::vector<int> labels = {0, 1};
  const EntityClustering c = EntityClustering::FromLabels(w, labels, kDedup);
  EXPECT_EQ(c.num_entities(), 1u);  // the match edge wins the union
  CheckClusteringInvariants(c);
}

TEST(EntityFuzzTest, RandomizedSmallWorkloads) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    const size_t n = 20 + rng.NextBelow(180);
    std::vector<data::InstancePair> pairs;
    pairs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Small id universe forces duplicates, self-pairs, and conflicts.
      const uint32_t a = static_cast<uint32_t>(rng.NextBelow(24));
      const uint32_t b = static_cast<uint32_t>(rng.NextBelow(24));
      pairs.push_back({a, b, rng.NextDouble(), rng.NextBernoulli(0.4)});
    }
    const data::Workload w(std::move(pairs));
    const std::vector<int> labels = w.GroundTruthLabels();

    const EntityClustering c = EntityClustering::FromLabels(w, labels, kDedup);
    CheckClusteringInvariants(c);

    // The two-table interpretation of the same workload must also hold its
    // invariants (different record universe, no self-pairs).
    const EntityClustering two =
        EntityClustering::FromLabels(w, labels, {0, 1});
    CheckClusteringInvariants(two);
  }
}

}  // namespace
}  // namespace humo
