#include "core/oracle.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/logistic_generator.h"

namespace humo::core {
namespace {

data::Workload SmallWorkload() {
  std::vector<data::InstancePair> pairs;
  for (uint32_t i = 0; i < 10; ++i) {
    pairs.push_back({i, i, static_cast<double>(i) / 10.0, i >= 5});
  }
  return data::Workload(std::move(pairs));
}

TEST(OracleTest, ReturnsGroundTruth) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(oracle.Label(i), w[i].is_match);
  }
}

TEST(OracleTest, CostCountsDistinctPairs) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  EXPECT_EQ(oracle.cost(), 0u);
  oracle.Label(3);
  oracle.Label(3);
  oracle.Label(3);
  EXPECT_EQ(oracle.cost(), 1u);
  oracle.Label(4);
  EXPECT_EQ(oracle.cost(), 2u);
  // A repeat within one inline batch is charged once too.
  EXPECT_EQ(oracle.InspectBatch({5, 3, 5}), (std::vector<char>{1, 0, 1}));
  EXPECT_EQ(oracle.cost(), 3u);
  EXPECT_EQ(oracle.total_requests(), 7u);
}

TEST(OracleTest, CostFraction) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  oracle.Label(0);
  oracle.Label(1);
  EXPECT_DOUBLE_EQ(oracle.CostFraction(), 0.2);
}

TEST(OracleTest, WasAsked) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  EXPECT_FALSE(oracle.WasAsked(2));
  oracle.Label(2);
  EXPECT_TRUE(oracle.WasAsked(2));
}

TEST(OracleTest, ErrorRateFlipsSomeAnswers) {
  const data::Workload w = SmallWorkload();
  Oracle noisy(&w, /*error_rate=*/0.5, /*seed=*/1);
  size_t wrong = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (noisy.Label(i) != w[i].is_match) ++wrong;
  }
  EXPECT_GT(wrong, 0u);
  EXPECT_LT(wrong, w.size());
}

TEST(OracleTest, ErrorsAreStableAcrossRepeatQueries) {
  const data::Workload w = SmallWorkload();
  Oracle noisy(&w, 0.5, 7);
  std::vector<bool> first;
  for (size_t i = 0; i < w.size(); ++i) first.push_back(noisy.Label(i));
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(noisy.Label(i), first[i]) << "answer changed on re-query " << i;
  }
}

TEST(OracleTest, ErrorRateApproximatelyRealized) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = 20000;
  const data::Workload w = data::GenerateLogisticWorkload(o);
  Oracle noisy(&w, 0.1, 3);
  size_t wrong = 0;
  for (size_t i = 0; i < w.size(); ++i)
    if (noisy.Label(i) != w[i].is_match) ++wrong;
  EXPECT_NEAR(static_cast<double>(wrong) / w.size(), 0.1, 0.02);
}

TEST(OracleTest, ZeroErrorRateIsExact) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w, 0.0, 42);
  for (size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(oracle.Label(i), w[i].is_match);
}

TEST(OracleTest, PreloadIsFreeAndServedFromMemory) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  oracle.Preload(3, true);
  oracle.Preload(7, false);
  EXPECT_EQ(oracle.cost(), 0u);
  EXPECT_EQ(oracle.preloaded(), 2u);
  EXPECT_EQ(oracle.total_requests(), 0u);
  EXPECT_TRUE(oracle.WasAsked(3));
  EXPECT_TRUE(oracle.WasAsked(7));
  EXPECT_FALSE(oracle.WasAsked(4));
  // A preloaded answer wins over the ground truth — it records what the
  // human actually said when the pair was originally inspected.
  EXPECT_TRUE(oracle.CachedAnswer(3));
  EXPECT_FALSE(oracle.CachedAnswer(7));
  EXPECT_TRUE(oracle.Label(3));
  EXPECT_EQ(oracle.cost(), 0u);  // served from memory, still free
  EXPECT_EQ(oracle.total_requests(), 1u);
}

TEST(OracleTest, PreloadDoesNotDoubleCountOrOverride) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  EXPECT_TRUE(oracle.Label(6));  // fresh inspection first
  oracle.Preload(6, false);      // no-op: an answer already exists
  EXPECT_EQ(oracle.preloaded(), 0u);
  EXPECT_EQ(oracle.cost(), 1u);
  EXPECT_TRUE(oracle.CachedAnswer(6));
  oracle.Preload(2, true);
  oracle.Preload(2, false);  // second preload of the same pair: no-op
  EXPECT_EQ(oracle.preloaded(), 1u);
  EXPECT_TRUE(oracle.CachedAnswer(2));
}

TEST(OracleTest, CostCountsOnlyFreshInspectionsNextToPreloads) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  oracle.Preload(0, false);
  oracle.Preload(1, true);
  const std::vector<char> answers = oracle.InspectBatch({0, 1, 2, 3, 4});
  // Pairs 0/1 served from preloads (1 true), 2-4 fresh (is_match false).
  EXPECT_EQ(answers, (std::vector<char>{0, 1, 0, 0, 0}));
  EXPECT_EQ(oracle.cost(), 3u);
  EXPECT_EQ(oracle.preloaded(), 2u);
  EXPECT_EQ(oracle.CostFraction(), 0.3);
}

/// Regression: cost() was previously DERIVED as answers.size() -
/// preloaded, so any preload/inspect interleaving that let `preloaded`
/// outrun the answer count wrapped cost() to ~SIZE_MAX. The counters are
/// now tracked directly; this pins every ordering of preload and fresh
/// inspection on overlapping and disjoint indices.
TEST(OracleTest, CostNeverUnderflowsAcrossPreloadInspectOrderings) {
  const data::Workload w = SmallWorkload();
  const size_t kHuge = static_cast<size_t>(-1) / 2;

  {
    // Preload then inspect the SAME pair: served from memory, still free.
    Oracle oracle(&w);
    oracle.Preload(3, true);  // ground truth for pair 3 is false
    EXPECT_EQ(oracle.cost(), 0u);
    EXPECT_TRUE(oracle.Label(3));  // preloaded answer wins over truth
    EXPECT_EQ(oracle.cost(), 0u);
    EXPECT_LT(oracle.cost(), kHuge);
    EXPECT_EQ(oracle.preloaded(), 1u);
    EXPECT_EQ(oracle.total_requests(), 1u);
    EXPECT_EQ(oracle.duplicate_requests(), 1u);
  }
  {
    // Inspect fresh FIRST, then preload the same pair: the preload is a
    // no-op and must not inflate preloaded() past the answer count.
    Oracle oracle(&w);
    EXPECT_TRUE(oracle.Label(7));
    oracle.Preload(7, false);
    oracle.Preload(7, false);
    EXPECT_EQ(oracle.cost(), 1u);
    EXPECT_EQ(oracle.preloaded(), 0u);
    EXPECT_TRUE(oracle.CachedAnswer(7));  // history not rewritten
  }
  {
    // Repeated preloads of one index count once.
    Oracle oracle(&w);
    oracle.Preload(2, true);
    oracle.Preload(2, true);
    oracle.Preload(2, false);
    EXPECT_EQ(oracle.preloaded(), 1u);
    EXPECT_EQ(oracle.cost(), 0u);
    EXPECT_TRUE(oracle.CachedAnswer(2));
  }
  {
    // Mixed: preloads and fresh inspections on disjoint indices, then a
    // batch straddling both. cost() counts only the fresh ones.
    Oracle oracle(&w);
    oracle.Preload(0, false);
    oracle.Preload(9, true);
    oracle.Label(4);
    const auto answers = oracle.InspectBatch({0, 4, 5, 9});
    EXPECT_EQ(answers.size(), 4u);
    EXPECT_EQ(oracle.cost(), 2u);       // pairs 4 and 5
    EXPECT_EQ(oracle.preloaded(), 2u);  // pairs 0 and 9
    EXPECT_LT(oracle.cost(), kHuge);
    EXPECT_EQ(oracle.total_requests(), 5u);
    EXPECT_EQ(oracle.duplicate_requests(), 3u);
  }
}

TEST(OracleTest, AnswerMemoryIsTwoBitsPerPair) {
  // Two bitsets of ceil(n / 64) words each, with room for vector growth.
  std::vector<data::InstancePair> pairs;
  const size_t n = 200000;
  pairs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    pairs.push_back({i, i, static_cast<double>(i) / static_cast<double>(n),
                     false});
  }
  const data::Workload w{std::move(pairs)};
  const size_t bound = 2 * (2 * 8 * ((n + 63) / 64));
  Oracle oracle(&w);
  oracle.Label(0);
  oracle.Label(n - 1);
  EXPECT_LE(oracle.AnswerMemoryBytes(), bound);

  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  oracle.InspectBatch(all);
  EXPECT_EQ(oracle.cost(), n);
  EXPECT_LE(oracle.AnswerMemoryBytes(), bound);
}

TEST(OracleTest, ProviderSeesEachDistinctUnansweredPairOnce) {
  // The provider receives the distinct unanswered indices in
  // first-occurrence order, and a single Label is a batch of one.
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  std::vector<std::vector<size_t>> calls;
  oracle.SetAnswerProvider([&](const std::vector<size_t>& fresh) {
    calls.push_back(fresh);
    std::vector<char> out;
    for (const size_t i : fresh) out.push_back(i % 2 == 0 ? 1 : 0);
    return out;
  });
  oracle.Preload(4, false);
  const std::vector<char> answers = oracle.InspectBatch({7, 4, 2, 7, 9, 2});
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::vector<size_t>{7, 2, 9}));
  EXPECT_EQ(answers, (std::vector<char>{0, 0, 1, 0, 0, 1}));
  EXPECT_EQ(oracle.cost(), 3u);
  EXPECT_EQ(oracle.total_requests(), 6u);
  EXPECT_EQ(oracle.duplicate_requests(), 3u);

  EXPECT_TRUE(oracle.Label(8));
  EXPECT_FALSE(oracle.Label(7));  // remembered: the provider is not asked
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1], (std::vector<size_t>{8}));
  EXPECT_EQ(oracle.cost(), 4u);
  EXPECT_EQ(oracle.total_requests(), 8u);
}

TEST(OracleTest, MoveForInsertionsFollowsPairsAndKeepsCounters) {
  const data::Workload w = SmallWorkload();
  Oracle oracle(&w);
  oracle.Label(0);
  oracle.Label(6);
  oracle.Label(6);
  oracle.Preload(3, false);
  // Rows landed at new positions 0, 4 and 5: old 0 -> 1, old 3 -> 6 (three
  // landings at or below it), old 6 -> 9.
  oracle.MoveForInsertions({0, 4, 5});
  EXPECT_FALSE(oracle.WasAsked(0));
  EXPECT_TRUE(oracle.WasAsked(1));
  EXPECT_FALSE(oracle.CachedAnswer(1));
  EXPECT_FALSE(oracle.WasAsked(3));
  EXPECT_TRUE(oracle.WasAsked(6));
  EXPECT_FALSE(oracle.CachedAnswer(6));
  EXPECT_TRUE(oracle.WasAsked(9));
  EXPECT_TRUE(oracle.CachedAnswer(9));
  size_t known = 0;
  for (size_t i = 0; i < w.size(); ++i) known += oracle.WasAsked(i);
  EXPECT_EQ(known, 3u);
  EXPECT_EQ(oracle.cost(), 2u);
  EXPECT_EQ(oracle.preloaded(), 1u);
  EXPECT_EQ(oracle.total_requests(), 3u);
}

TEST(OracleTest, MoveForInsertionsCrossesWordsAndGrowsPastTheOldEnd) {
  // Answers on both sides of two word boundaries and at the last index.
  // The shard lands before, between and past them, so answers cross words
  // and the last one lands beyond the words the oracle held before the
  // merge.
  const uint32_t old_n = 4160;  // 65 words: index 4159 sits in the last one
  std::vector<data::InstancePair> pairs;
  for (uint32_t i = 0; i < old_n; ++i) {
    pairs.push_back({i, i, (i + 1) / 8192.0, i % 3 == 0});
  }
  data::Workload w{std::move(pairs)};
  Oracle oracle(&w);
  const std::vector<size_t> asked = {63, 64, 4095, 4096, old_n - 1};
  oracle.InspectBatch(asked);
  oracle.Preload(1000, true);  // ground truth: non-match
  const std::vector<size_t> landed = w.MergeSorted({
      {old_n, old_n, 0.0, false},
      {old_n + 1, old_n + 1, 64.5 / 8192.0, false},
      {old_n + 2, old_n + 2, 4096.5 / 8192.0, false},
      {old_n + 3, old_n + 3, 0.9, false},
      {old_n + 4, old_n + 4, 0.95, false},
      {old_n + 5, old_n + 5, 1.0, false},
  });
  ASSERT_EQ(landed, (std::vector<size_t>{0, 65, 4098, 4163, 4164, 4165}));
  oracle.MoveForInsertions(landed);
  // Old 63 -> 64 crosses into word 1; old 4159 -> 4162 lands in word 65,
  // past the old end.
  const std::vector<size_t> moved = {64, 66, 4097, 4099, 4162};
  for (size_t t = 0; t < asked.size(); ++t) {
    ASSERT_EQ(w[moved[t]].left_id, asked[t]);
    EXPECT_TRUE(oracle.WasAsked(moved[t])) << asked[t];
    EXPECT_EQ(oracle.CachedAnswer(moved[t]), w[moved[t]].is_match)
        << asked[t];
  }
  ASSERT_EQ(w[1002].left_id, 1000u);
  EXPECT_TRUE(oracle.WasAsked(1002));
  EXPECT_TRUE(oracle.CachedAnswer(1002));
  size_t known = 0;
  for (size_t i = 0; i < w.size(); ++i) known += oracle.WasAsked(i);
  EXPECT_EQ(known, asked.size() + 1);
  // Indices beyond every recorded answer read not asked.
  EXPECT_FALSE(oracle.WasAsked(w.size()));
  EXPECT_FALSE(oracle.WasAsked(size_t{1} << 20));
  EXPECT_FALSE(oracle.WasAsked(static_cast<size_t>(-1)));
  EXPECT_EQ(oracle.cost(), asked.size());
  EXPECT_EQ(oracle.preloaded(), 1u);
}

}  // namespace
}  // namespace humo::core
