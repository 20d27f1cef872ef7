#include "data/workload_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/pair_simulator.h"
#include "data/workload.h"

namespace humo::data {
namespace {

Workload SmallWorkload(size_t num_pairs = 1200) {
  PairSimulatorConfig config;
  config.num_pairs = num_pairs;
  config.num_matches = num_pairs / 10;
  config.seed = 42;
  return SimulatePairs(config);
}

std::vector<InstancePair> CollectAll(WorkloadStream* stream) {
  std::vector<InstancePair> all;
  Shard shard;
  while (stream->Next(&shard)) {
    all.insert(all.end(), shard.pairs.begin(), shard.pairs.end());
  }
  return all;
}

bool SamePair(const InstancePair& a, const InstancePair& b) {
  return a.left_id == b.left_id && a.right_id == b.right_id &&
         a.similarity == b.similarity && a.is_match == b.is_match;
}

class WorkloadStreamTest : public ::testing::TestWithParam<ArrivalOrder> {};

TEST_P(WorkloadStreamTest, ShardsPartitionTheBaseExactly) {
  const Workload base = SmallWorkload();
  WorkloadStreamOptions options;
  options.num_shards = 7;
  options.order = GetParam();
  WorkloadStream stream(&base, options);

  std::vector<InstancePair> all = CollectAll(&stream);
  ASSERT_EQ(all.size(), base.size());
  std::sort(all.begin(), all.end(), PairLess);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(SamePair(all[i], base[i])) << "index " << i;
  }
}

TEST_P(WorkloadStreamTest, DeterministicAcrossInstancesAndResets) {
  const Workload base = SmallWorkload();
  WorkloadStreamOptions options;
  options.num_shards = 5;
  options.order = GetParam();
  WorkloadStream a(&base, options), b(&base, options);

  const std::vector<InstancePair> first = CollectAll(&a);
  EXPECT_EQ(first.size(), CollectAll(&b).size());
  a.Reset();
  Shard shard;
  size_t offset = 0;
  while (a.Next(&shard)) {
    for (const InstancePair& p : shard.pairs) {
      ASSERT_LT(offset, first.size());
      EXPECT_TRUE(SamePair(p, first[offset])) << "offset " << offset;
      ++offset;
    }
  }
  EXPECT_EQ(offset, first.size());
}

TEST_P(WorkloadStreamTest, ShardAtMatchesIteration) {
  const Workload base = SmallWorkload(600);
  WorkloadStreamOptions options;
  options.num_shards = 4;
  options.order = GetParam();
  WorkloadStream stream(&base, options);
  Shard shard;
  size_t epoch = 0;
  while (stream.Next(&shard)) {
    const Shard direct = stream.ShardAt(epoch);
    ASSERT_EQ(direct.pairs.size(), shard.pairs.size());
    for (size_t i = 0; i < shard.pairs.size(); ++i)
      EXPECT_TRUE(SamePair(direct.pairs[i], shard.pairs[i]));
    EXPECT_EQ(direct.epoch, epoch);
    ++epoch;
  }
  EXPECT_EQ(epoch, 4u);
}

INSTANTIATE_TEST_SUITE_P(Orders, WorkloadStreamTest,
                         ::testing::Values(ArrivalOrder::kShuffled,
                                           ArrivalOrder::kRoundRobin,
                                           ArrivalOrder::kSimilarityAscending),
                         [](const ::testing::TestParamInfo<ArrivalOrder>& i) {
                           switch (i.param) {
                             case ArrivalOrder::kShuffled:
                               return "Shuffled";
                             case ArrivalOrder::kRoundRobin:
                               return "RoundRobin";
                             default:
                               return "SimilarityAscending";
                           }
                         });

TEST(WorkloadStreamOrderTest, SimilarityAscendingShardsAreContiguousSlices) {
  const Workload base = SmallWorkload(800);
  WorkloadStreamOptions options;
  options.num_shards = 4;
  options.order = ArrivalOrder::kSimilarityAscending;
  WorkloadStream stream(&base, options);
  for (size_t e = 0; e < 4; ++e) {
    Shard shard = stream.ShardAt(e);
    std::sort(shard.pairs.begin(), shard.pairs.end(), PairLess);
    const size_t begin = e * base.size() / 4;
    ASSERT_EQ(shard.pairs.size(), (e + 1) * base.size() / 4 - begin);
    for (size_t i = 0; i < shard.pairs.size(); ++i)
      EXPECT_TRUE(SamePair(shard.pairs[i], base[begin + i]));
  }
}

TEST(WorkloadStreamOrderTest, ShuffledSeedChangesAssignment) {
  const Workload base = SmallWorkload(500);
  WorkloadStreamOptions a_options;
  a_options.num_shards = 2;
  a_options.order = ArrivalOrder::kShuffled;
  a_options.seed = 1;
  WorkloadStreamOptions b_options = a_options;
  b_options.seed = 2;
  WorkloadStream a(&base, a_options), b(&base, b_options);
  const Shard sa = a.ShardAt(0), sb = b.ShardAt(0);
  ASSERT_EQ(sa.pairs.size(), sb.pairs.size());
  bool any_difference = false;
  for (size_t i = 0; i < sa.pairs.size() && !any_difference; ++i)
    any_difference = !SamePair(sa.pairs[i], sb.pairs[i]);
  EXPECT_TRUE(any_difference);
}

TEST(WorkloadStreamEdgeTest, MoreShardsThanPairs) {
  const Workload base = SmallWorkload(3);
  WorkloadStreamOptions options;
  options.num_shards = 8;
  WorkloadStream stream(&base, options);
  std::vector<InstancePair> all = CollectAll(&stream);
  EXPECT_EQ(all.size(), 3u);
}

TEST(WorkloadStreamEdgeTest, EmptyBase) {
  const Workload base;
  WorkloadStreamOptions options;
  options.num_shards = 3;
  WorkloadStream stream(&base, options);
  Shard shard;
  size_t epochs = 0, pairs = 0;
  while (stream.Next(&shard)) {
    ++epochs;
    pairs += shard.pairs.size();
  }
  EXPECT_EQ(epochs, 3u);
  EXPECT_EQ(pairs, 0u);
}

TEST(WorkloadMergeTest, MergeSortedEqualsSortOfConcatenation) {
  for (int rep = 0; rep < 20; ++rep) {
    const Workload base = SmallWorkload(300 + rep * 17);
    WorkloadStreamOptions options;
    options.num_shards = 3;
    options.order = rep % 2 == 0 ? ArrivalOrder::kShuffled
                                 : ArrivalOrder::kSimilarityAscending;
    options.seed = static_cast<uint64_t>(rep);
    WorkloadStream stream(&base, options);

    Workload merged;
    Shard shard;
    while (stream.Next(&shard)) {
      merged.MergeSorted(std::move(shard.pairs));
    }
    ASSERT_EQ(merged.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i)
      EXPECT_TRUE(SamePair(merged[i], base[i])) << "rep " << rep;
  }
}

TEST(WorkloadMergeTest, PureAppendDetection) {
  const Workload base = SmallWorkload(400);
  WorkloadStreamOptions options;
  options.num_shards = 4;
  options.order = ArrivalOrder::kSimilarityAscending;
  WorkloadStream stream(&base, options);
  Workload merged;
  Shard shard;
  while (stream.Next(&shard)) {
    const size_t old_n = merged.size();
    EXPECT_GE(merged.MergeSorted(std::move(shard.pairs)).front(), old_n);
  }

  // Shuffled arrivals are interior merges from the second shard on.
  options.order = ArrivalOrder::kShuffled;
  WorkloadStream shuffled(&base, options);
  Workload merged2;
  shuffled.Next(&shard);
  EXPECT_EQ(merged2.MergeSorted(std::move(shard.pairs)).front(), 0u);
  shuffled.Next(&shard);
  const size_t old_n = merged2.size();
  EXPECT_LT(merged2.MergeSorted(std::move(shard.pairs)).front(), old_n);
  EXPECT_TRUE(merged2.MergeSorted({}).empty());
}

TEST(WorkloadMergeTest, LandingPositionsMatchReferenceMerge) {
  // Reference: a stable sort of (existing rows, then the incoming rows)
  // under PairLess keeps existing pairs first among equals, as the merge
  // does; the incoming rows' positions in it are where they landed. Every
  // old row must sit at its index plus the landings before it.
  for (int rep = 0; rep < 12; ++rep) {
    const Workload base = SmallWorkload(500 + rep * 31);
    WorkloadStreamOptions options;
    options.num_shards = 5;
    options.order = rep % 3 == 0 ? ArrivalOrder::kSimilarityAscending
                                 : ArrivalOrder::kShuffled;
    options.seed = static_cast<uint64_t>(rep);
    WorkloadStream stream(&base, options);
    Workload merged;
    Shard shard;
    while (stream.Next(&shard)) {
      std::vector<InstancePair> incoming = shard.pairs;
      // Repeat an existing pair: equal pairs land after the existing one.
      if (!merged.empty()) incoming.push_back(merged[merged.size() / 2]);
      const Workload before = merged;

      struct Row {
        InstancePair pair;
        bool incoming;
      };
      std::vector<Row> rows;
      for (size_t i = 0; i < before.size(); ++i) {
        rows.push_back({before[i], false});
      }
      const Workload sorted_incoming{incoming};
      for (size_t j = 0; j < sorted_incoming.size(); ++j) {
        rows.push_back({sorted_incoming[j], true});
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [](const Row& a, const Row& b) {
                         return PairLess(a.pair, b.pair);
                       });
      std::vector<size_t> expected;
      for (size_t k = 0; k < rows.size(); ++k) {
        if (rows[k].incoming) expected.push_back(k);
      }

      const std::vector<size_t> landed =
          merged.MergeSorted(std::move(incoming));
      ASSERT_EQ(landed, expected) << "rep " << rep;
      ASSERT_EQ(merged.size(), rows.size());
      size_t shift = 0;
      for (size_t i = 0; i < before.size(); ++i) {
        while (shift < landed.size() && landed[shift] <= i + shift) ++shift;
        ASSERT_TRUE(SamePair(merged[i + shift], before[i]))
            << "rep " << rep << " old row " << i;
      }
      for (const size_t k : landed) {
        EXPECT_TRUE(SamePair(merged[k], rows[k].pair)) << "rep " << rep;
      }
    }
  }
}

}  // namespace
}  // namespace humo::data
