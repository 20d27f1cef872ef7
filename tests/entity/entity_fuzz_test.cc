#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "data/workload.h"
#include "entity/entity_clustering.h"
#include "entity/transitivity_repair.h"

namespace humo {
namespace {

using entity::ClusteringOptions;
using entity::CountDisagreements;
using entity::EntityClustering;
using entity::RepairResult;
using entity::RepairTransitivity;

constexpr ClusteringOptions kDedup{0, 0};

/// Structural invariants every clustering must satisfy, whatever the input.
void CheckClusteringInvariants(const EntityClustering& c) {
  ASSERT_EQ(c.entity_of_record().size(), c.num_records());
  ASSERT_TRUE(std::is_sorted(c.record_keys().begin(), c.record_keys().end()));
  // MembersOf partitions the records: every record appears in exactly the
  // entity EntityOf says, and sizes add up.
  size_t total = 0;
  size_t multi = 0;
  for (uint32_t e = 0; e < c.num_entities(); ++e) {
    const EntityClustering::MemberRange members = c.MembersOf(e);
    ASSERT_FALSE(members.empty());  // canonical ids have no empty entities
    if (members.size() >= 2) ++multi;
    for (size_t i = 0; i < members.size(); ++i) {
      ASSERT_EQ(c.EntityOf(members[i]), std::optional<uint32_t>(e));
      if (i > 0) {
        ASSERT_LT(PackRecord(members[i - 1]), PackRecord(members[i]));
      }
    }
    total += members.size();
  }
  ASSERT_EQ(total, c.num_records());
  ASSERT_EQ(multi, c.num_multi_record_entities());
  for (const uint32_t e : c.entity_of_record()) {
    ASSERT_LT(e, c.num_entities());
  }
}

TEST(EntityFuzzTest, EmptyWorkload) {
  const data::Workload w;
  const EntityClustering c = EntityClustering::FromLabels(w, {}, kDedup);
  EXPECT_EQ(c.num_records(), 0u);
  EXPECT_EQ(c.num_entities(), 0u);
  EXPECT_EQ(c.EntityOf({0, 0}), std::nullopt);
  EXPECT_TRUE(c.MembersOf(0).empty());
  CheckClusteringInvariants(c);

  const RepairResult r = RepairTransitivity(w, {}, kDedup);
  EXPECT_TRUE(r.labels.empty());
  EXPECT_EQ(r.stats.disagreements_before, 0u);
  EXPECT_EQ(r.stats.disagreements_after, 0u);
}

TEST(EntityFuzzTest, OnlySelfPairs) {
  const data::Workload w({{0, 0, 0.1, false}, {1, 1, 0.5, true},
                          {2, 2, 0.9, false}});
  const std::vector<int> labels = w.GroundTruthLabels();
  const EntityClustering c = EntityClustering::FromLabels(w, labels, kDedup);
  EXPECT_EQ(c.num_records(), 3u);
  EXPECT_EQ(c.num_entities(), 3u);  // self edges never merge anything
  CheckClusteringInvariants(c);

  const RepairResult r = RepairTransitivity(w, labels, kDedup);
  EXPECT_EQ(r.stats.self_conflicts, 2u);
  EXPECT_EQ(r.stats.disagreements_after, 2u);
  EXPECT_EQ(r.labels, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(CountDisagreements(w, r.labels, r.clustering, kDedup), 0u);
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
  EXPECT_EQ(c.EntitySize(0), 31u);
  CheckClusteringInvariants(c);
  const RepairResult r = RepairTransitivity(w, w.GroundTruthLabels(), kDedup);
  EXPECT_EQ(r.stats.disagreements_before, 0u);
  EXPECT_EQ(r.clustering, c);
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
  EXPECT_EQ(c.num_multi_record_entities(), 0u);
  CheckClusteringInvariants(c);
  const RepairResult r = RepairTransitivity(w, w.GroundTruthLabels(), kDedup);
  EXPECT_EQ(r.stats.disagreements_before, 0u);
  EXPECT_EQ(r.labels, w.GroundTruthLabels());
}

TEST(EntityFuzzTest, ConflictingDuplicateLabels) {
  // The same identity pair observed twice with contradictory labels
  // (distinct similarities keep the pairs distinct under PairLess).
  const data::Workload w({{0, 1, 0.4, false}, {0, 1, 0.8, true}});
  std::vector<int> labels = {0, 1};
  const EntityClustering c = EntityClustering::FromLabels(w, labels, kDedup);
  EXPECT_EQ(c.num_entities(), 1u);  // the match edge wins the union
  CheckClusteringInvariants(c);
  const RepairResult r = RepairTransitivity(w, labels, kDedup);
  // One of the two contradictory observations disagrees either way.
  EXPECT_EQ(r.stats.disagreements_before, 1u);
  EXPECT_EQ(r.stats.disagreements_after, 1u);
  EXPECT_EQ(CountDisagreements(w, r.labels, r.clustering, kDedup), 0u);
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

    const RepairResult r = RepairTransitivity(w, labels, kDedup);
    CheckClusteringInvariants(r.clustering);
    EXPECT_LE(r.stats.disagreements_after, r.stats.disagreements_before);
    // Repaired labels are exactly the repaired clustering's relation.
    EXPECT_EQ(CountDisagreements(w, r.labels, r.clustering, kDedup), 0u);
    EXPECT_EQ(EntityClustering::FromLabels(w, r.labels, kDedup), r.clustering);
    // And a second repair is a no-op.
    const RepairResult again = RepairTransitivity(w, r.labels, kDedup);
    EXPECT_EQ(again.labels, r.labels);
    EXPECT_EQ(again.stats.moves_applied, 0u);

    // The two-table interpretation of the same workload must also hold its
    // invariants (different record universe, no self-pairs).
    const EntityClustering two =
        EntityClustering::FromLabels(w, labels, {0, 1});
    CheckClusteringInvariants(two);
  }
}

}  // namespace
}  // namespace humo
