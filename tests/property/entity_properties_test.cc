#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/entity_graph_generator.h"
#include "data/workload.h"
#include "entity/entity_clustering.h"

namespace humo {
namespace {

using data::EntityGraph;
using data::EntityGraphConfig;
using data::GenerateEntityGraph;
using data::NoisyLabels;
using entity::ClusteringOptions;
using entity::EntityClustering;

constexpr ClusteringOptions kDedup{0, 0};

/// Property sweep over a randomized seed x size grid: the entity layer's
/// advertised invariants must hold on every realization, not just the
/// hand-picked fixtures of the unit tests.
struct EntityPropertyCase {
  uint64_t seed;
  size_t num_entities;
  double noise;
};

std::string CaseName(const ::testing::TestParamInfo<EntityPropertyCase>& info) {
  return "seed" + std::to_string(info.param.seed) + "_n" +
         std::to_string(info.param.num_entities) + "_noise" +
         std::to_string(static_cast<int>(info.param.noise * 1000));
}

class EntityPropertyTest : public ::testing::TestWithParam<EntityPropertyCase> {
 protected:
  static EntityGraph Generate(const EntityPropertyCase& pc) {
    EntityGraphConfig config;
    config.num_entities = pc.num_entities;
    config.seed = pc.seed;
    return GenerateEntityGraph(config);
  }
};

TEST_P(EntityPropertyTest, ClusteringIsIdempotentAndPermutationInvariant) {
  const EntityPropertyCase pc = GetParam();
  const EntityGraph g = Generate(pc);
  const std::vector<int> labels =
      NoisyLabels(g.workload, pc.noise, pc.seed ^ 0xA5A5);

  // Idempotence: rebuilding from the same inputs is bit-identical.
  const EntityClustering a =
      EntityClustering::FromLabels(g.workload, labels, kDedup);
  const EntityClustering b =
      EntityClustering::FromLabels(g.workload, labels, kDedup);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Checksum(), b.Checksum());

  // Permutation invariance: a workload rebuilt from shuffled pairs
  // canonicalizes to the same sorted sequence, so the clustering over it is
  // bit-identical too.
  std::vector<data::InstancePair> pairs = g.workload.MaterializePairs();
  Rng rng(pc.seed * 31 + 7);
  rng.Shuffle(&pairs);
  const data::Workload shuffled(std::move(pairs));
  ASSERT_EQ(shuffled.size(), g.workload.size());
  for (size_t i = 0; i < shuffled.size(); ++i) {
    ASSERT_EQ(shuffled.Similarity(i), g.workload.Similarity(i));
    ASSERT_EQ(shuffled.left_id_data()[i], g.workload.left_id_data()[i]);
    ASSERT_EQ(shuffled.right_id_data()[i], g.workload.right_id_data()[i]);
  }
  const EntityClustering c =
      EntityClustering::FromLabels(shuffled, labels, kDedup);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.Checksum(), c.Checksum());
}

TEST_P(EntityPropertyTest, ClusteringAndRepairAreThreadCountInvariant) {
  const EntityPropertyCase pc = GetParam();
  const EntityGraph g = Generate(pc);
  const std::vector<int> labels =
      NoisyLabels(g.workload, pc.noise, pc.seed ^ 0xA5A5);

  uint64_t cluster_checksum[2] = {0, 0};
  const size_t thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    ThreadPool::SetGlobalThreads(thread_counts[t]);
    cluster_checksum[t] =
        EntityClustering::FromLabels(g.workload, labels, kDedup).Checksum();
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default pool

  EXPECT_EQ(cluster_checksum[0], cluster_checksum[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EntityPropertyTest,
    ::testing::Values(EntityPropertyCase{1, 60, 0.0},
                      EntityPropertyCase{1, 60, 0.05},
                      EntityPropertyCase{2, 250, 0.02},
                      EntityPropertyCase{3, 250, 0.08},
                      EntityPropertyCase{4, 800, 0.01},
                      EntityPropertyCase{5, 800, 0.05}),
    CaseName);

}  // namespace
}  // namespace humo
