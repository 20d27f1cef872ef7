#include "data/blocking.h"

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "text/token_similarity.h"

namespace humo::data {
namespace {

RecordTable LeftTable() {
  RecordTable t({"name"});
  EXPECT_TRUE(t.Add({0, 100, {"alpha beta gamma"}}).ok());
  EXPECT_TRUE(t.Add({1, 101, {"delta epsilon"}}).ok());
  return t;
}

RecordTable RightTable() {
  RecordTable t({"name"});
  EXPECT_TRUE(t.Add({0, 100, {"alpha beta gamma"}}).ok());   // exact dup
  EXPECT_TRUE(t.Add({1, 102, {"zeta eta theta"}}).ok());     // unrelated
  EXPECT_TRUE(t.Add({2, 101, {"delta epsilon extra"}}).ok()); // near dup
  return t;
}

double NameScorer(const Record& a, const Record& b) {
  return text::JaccardSimilarity(a.attributes[0], b.attributes[0]);
}

TEST(ThresholdBlockTest, KeepsOnlyAboveThreshold) {
  const auto left = LeftTable();
  const auto right = RightTable();
  const Workload w = ThresholdBlock(left, right, NameScorer, 0.5);
  // alpha/alpha (1.0) and delta/delta-extra (2/3) survive at 0.5.
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.CountMatches(), 2u);
}

TEST(ThresholdBlockTest, ZeroThresholdKeepsCrossProduct) {
  const auto left = LeftTable();
  const auto right = RightTable();
  const Workload w = ThresholdBlock(left, right, NameScorer, 0.0);
  EXPECT_EQ(w.size(), left.size() * right.size());
}

TEST(ThresholdBlockTest, GroundTruthFromEntityIds) {
  const auto left = LeftTable();
  const auto right = RightTable();
  const Workload w = ThresholdBlock(left, right, NameScorer, 0.0);
  size_t matches = 0;
  for (size_t i = 0; i < w.size(); ++i) matches += w[i].is_match;
  EXPECT_EQ(matches, 2u);
}

TEST(ThresholdBlockTest, OutputSorted) {
  const Workload w =
      ThresholdBlock(LeftTable(), RightTable(), NameScorer, 0.0);
  for (size_t i = 1; i < w.size(); ++i)
    EXPECT_LE(w[i - 1].similarity, w[i].similarity);
}

TEST(TokenBlockTest, FindsSharedTokenCandidates) {
  const auto left = LeftTable();
  const auto right = RightTable();
  const Workload w = TokenBlock(left, right, 0, NameScorer, 0.1);
  // Same surviving pairs as threshold blocking at 0.1 since all matching
  // pairs share tokens.
  const Workload full = ThresholdBlock(left, right, NameScorer, 0.1);
  EXPECT_EQ(w.size(), full.size());
  EXPECT_EQ(w.CountMatches(), full.CountMatches());
}

TEST(TokenBlockTest, SkipsTokenDisjointPairs) {
  RecordTable left({"name"});
  ASSERT_TRUE(left.Add({0, 1, {"aaa bbb"}}).ok());
  RecordTable right({"name"});
  ASSERT_TRUE(right.Add({0, 2, {"ccc ddd"}}).ok());
  const Workload w = TokenBlock(left, right, 0, NameScorer, 0.0);
  EXPECT_EQ(w.size(), 0u);  // no shared token -> never scored
}

TEST(BlockingStatsTest, ReductionAndCompleteness) {
  const auto left = LeftTable();
  const auto right = RightTable();
  const Workload w = ThresholdBlock(left, right, NameScorer, 0.5);
  const auto stats = ComputeBlockingStats(left, right, w);
  EXPECT_EQ(stats.candidate_pairs, 2u);
  EXPECT_EQ(stats.total_possible_pairs, 6u);
  EXPECT_EQ(stats.true_matches_total, 2u);
  EXPECT_EQ(stats.true_matches_retained, 2u);
  EXPECT_NEAR(stats.ReductionRatio(), 1.0 - 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.PairCompleteness(), 1.0);
}

TEST(BlockingStatsTest, LostMatchLowersCompleteness) {
  const auto left = LeftTable();
  const auto right = RightTable();
  // Absurd threshold drops the near-duplicate match.
  const Workload w = ThresholdBlock(left, right, NameScorer, 0.9);
  const auto stats = ComputeBlockingStats(left, right, w);
  EXPECT_EQ(stats.true_matches_retained, 1u);
  EXPECT_DOUBLE_EQ(stats.PairCompleteness(), 0.5);
}

TEST(BlockingStatsTest, EmptyTablesYieldDefinedRatios) {
  const RecordTable empty({"name"});
  const Workload w = ThresholdBlock(empty, empty, NameScorer, 0.0);
  EXPECT_TRUE(w.empty());
  const auto stats = ComputeBlockingStats(empty, empty, w);
  EXPECT_EQ(stats.total_possible_pairs, 0u);
  // No possible pairs: nothing was reduced, nothing was lost.
  EXPECT_DOUBLE_EQ(stats.ReductionRatio(), 0.0);
  EXPECT_DOUBLE_EQ(stats.PairCompleteness(), 1.0);
}

TEST(BlockingStatsTest, OneEmptySideBlocksNothing) {
  const auto left = LeftTable();
  const RecordTable empty({"name"});
  EXPECT_TRUE(ThresholdBlock(left, empty, NameScorer, 0.0).empty());
  EXPECT_TRUE(ThresholdBlock(empty, LeftTable(), NameScorer, 0.0).empty());
  EXPECT_TRUE(TokenBlock(left, empty, 0, NameScorer, 0.0).empty());
}

TEST(BlockingStatsTest, ZeroCandidatesStillComputesStats) {
  const auto left = LeftTable();
  const auto right = RightTable();
  // Threshold above 1.0 rejects every candidate.
  const Workload w = ThresholdBlock(left, right, NameScorer, 1.5);
  EXPECT_TRUE(w.empty());
  const auto stats = ComputeBlockingStats(left, right, w);
  EXPECT_EQ(stats.candidate_pairs, 0u);
  EXPECT_DOUBLE_EQ(stats.ReductionRatio(), 1.0);
  EXPECT_DOUBLE_EQ(stats.PairCompleteness(), 0.0);
  EXPECT_EQ(stats.true_matches_total, 2u);
}

TEST(BlockingStatsTest, ThresholdOneKeepsOnlyPerfectScores) {
  const auto left = LeftTable();
  const auto right = RightTable();
  const Workload w = ThresholdBlock(left, right, NameScorer, 1.0);
  ASSERT_EQ(w.size(), 1u);  // only the exact duplicate scores 1.0
  EXPECT_DOUBLE_EQ(w.Similarity(0), 1.0);
  EXPECT_TRUE(w.IsMatch(0));
}

/// Bigger synthetic tables so the parallel blockers actually split into
/// multiple chunks.
RecordTable WideTable(uint32_t id_base, uint32_t entity_base, size_t n) {
  RecordTable t({"name"});
  const char* vocab[] = {"alpha", "beta",  "gamma", "delta",
                         "omega", "sigma", "kappa", "lambda"};
  for (size_t i = 0; i < n; ++i) {
    std::string name;
    for (size_t w = 0; w < 3; ++w) {
      name += std::string(vocab[(i / (w + 1) + w) % 8]) + " ";
    }
    name += "id" + std::to_string(i % 37);
    EXPECT_TRUE(t.Add({id_base + static_cast<uint32_t>(i),
                       entity_base + static_cast<uint32_t>(i % 61),
                       {name}})
                    .ok());
  }
  return t;
}

void ExpectSameWorkload(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.similarities(), b.similarities());
  EXPECT_EQ(a.left_ids(), b.left_ids());
  EXPECT_EQ(a.right_ids(), b.right_ids());
  EXPECT_EQ(a.match_labels(), b.match_labels());
}

TEST(BlockingDeterminismTest, ParallelEqualsSerialBitForBit) {
  const auto left = WideTable(0, 0, 300);
  const auto right = WideTable(1000, 0, 300);

  ThreadPool::SetGlobalThreads(1);
  const Workload threshold_1 = ThresholdBlock(left, right, NameScorer, 0.3);
  const Workload token_1 = TokenBlock(left, right, 0, NameScorer, 0.2);

  ThreadPool::SetGlobalThreads(4);
  const Workload threshold_4 = ThresholdBlock(left, right, NameScorer, 0.3);
  const Workload token_4 = TokenBlock(left, right, 0, NameScorer, 0.2);
  ThreadPool::SetGlobalThreads(0);

  ASSERT_GT(threshold_1.size(), 0u);
  ASSERT_GT(token_1.size(), 0u);
  ExpectSameWorkload(threshold_1, threshold_4);
  ExpectSameWorkload(token_1, token_4);
}

}  // namespace
}  // namespace humo::data
