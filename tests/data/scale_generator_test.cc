#include "data/scale_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "data/blocking.h"
#include "text/token_similarity.h"
#include "text/tokenizer.h"

namespace humo::data {
namespace {

TEST(ScaleGeneratorTest, WorkloadHasConfiguredSizeAndMatches) {
  ScaleWorkloadConfig cfg;
  cfg.num_pairs = 50000;
  cfg.match_fraction = 0.05;
  const Workload w = GenerateScaleWorkload(cfg);
  EXPECT_EQ(w.size(), 50000u);
  EXPECT_EQ(w.CountMatches(), 2500u);
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_LE(w.Similarity(i - 1), w.Similarity(i));
  }
  EXPECT_GE(w.Similarity(0), cfg.lo);
  EXPECT_LE(w.Similarity(w.size() - 1), cfg.hi);
}

TEST(ScaleGeneratorTest, WorkloadMatchesSortedRawPairs) {
  // GenerateScaleWorkload is the raw column realization put in PairLess
  // order: check it against a comparison sort of the same pairs.
  ScaleWorkloadConfig cfg;
  cfg.num_pairs = 20000;
  const Workload direct = GenerateScaleWorkload(cfg);
  const ScaleColumns raw = GenerateScaleColumns(cfg);
  std::vector<InstancePair> pairs(cfg.num_pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    pairs[i] = {raw.left_ids[i], raw.right_ids[i], raw.similarities[i],
                raw.labels[i] != 0};
  }
  std::sort(pairs.begin(), pairs.end(), PairLess);
  ASSERT_EQ(direct.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(direct.Similarity(i), pairs[i].similarity) << i;
    ASSERT_EQ(direct.left_ids()[i], pairs[i].left_id) << i;
    ASSERT_EQ(direct.right_ids()[i], pairs[i].right_id) << i;
    ASSERT_EQ(direct.IsMatch(i), pairs[i].is_match) << i;
  }
}

TEST(ScaleGeneratorTest, WorkloadIsThreadCountInvariant) {
  ScaleWorkloadConfig cfg;
  cfg.num_pairs = 30000;
  ThreadPool::SetGlobalThreads(1);
  const Workload serial = GenerateScaleWorkload(cfg);
  ThreadPool::SetGlobalThreads(4);
  const Workload parallel = GenerateScaleWorkload(cfg);
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(serial.similarities(), parallel.similarities());
  EXPECT_EQ(serial.match_labels(), parallel.match_labels());
}

TEST(ScaleGeneratorTest, TablesDriveTokenBlockToExactCandidateCount) {
  ScaleTablesConfig cfg;
  cfg.groups = 64;
  cfg.left_per_group = 4;
  cfg.right_per_group = 4;
  cfg.match_fraction = 0.1;
  const ScaleTables t = GenerateScaleTables(cfg);
  ASSERT_EQ(t.left.size(), 64u * 4u);
  ASSERT_EQ(t.right.size(), 64u * 4u);

  const PairScorer scorer = [](const Record& a, const Record& b) {
    return text::JaccardSimilarity(text::WordTokens(a.attributes[1]),
                                   text::WordTokens(b.attributes[1]));
  };
  // Threshold 0 keeps every candidate: the group construction promises
  // exactly groups * L * R of them.
  const Workload w = TokenBlock(t.left, t.right, 0, scorer, 0.0);
  EXPECT_EQ(w.size(), 64u * 4u * 4u);
  EXPECT_GT(w.CountMatches(), 0u);

  // Matching pairs share a perturbed name: their similarity must dominate
  // the non-matching in-group pairs on average.
  double match_sum = 0.0, unmatch_sum = 0.0;
  size_t matches = 0, unmatches = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w.IsMatch(i)) {
      match_sum += w.Similarity(i);
      ++matches;
    } else {
      unmatch_sum += w.Similarity(i);
      ++unmatches;
    }
  }
  ASSERT_GT(matches, 0u);
  ASSERT_GT(unmatches, 0u);
  EXPECT_GT(match_sum / static_cast<double>(matches),
            unmatch_sum / static_cast<double>(unmatches) + 0.3);
}

TEST(ScaleGeneratorTest, PerturbedTablesDeterministicAndDistinctFromLegacy) {
  ScaleTablesConfig legacy_cfg;
  legacy_cfg.groups = 16;
  ScaleTablesConfig perturbed_cfg = legacy_cfg;
  perturbed_cfg.perturb_names = true;

  const ScaleTables p1 = GenerateScaleTables(perturbed_cfg);
  const ScaleTables p2 = GenerateScaleTables(perturbed_cfg);
  ASSERT_EQ(p1.right.size(), p2.right.size());
  for (size_t i = 0; i < p1.right.size(); ++i) {
    EXPECT_EQ(p1.right[i].entity_id, p2.right[i].entity_id);
    EXPECT_EQ(p1.right[i].attributes, p2.right[i].attributes);
  }

  // The knob only rewrites MATCHED right names: left tables and match
  // structure are identical to the legacy realization, and at least one
  // matched right name differs from its legacy "append one word" form.
  const ScaleTables legacy = GenerateScaleTables(legacy_cfg);
  ASSERT_EQ(legacy.left.size(), p1.left.size());
  size_t matched = 0, renamed = 0;
  for (size_t i = 0; i < legacy.left.size(); ++i) {
    EXPECT_EQ(legacy.left[i].attributes, p1.left[i].attributes);
  }
  for (size_t i = 0; i < legacy.right.size(); ++i) {
    EXPECT_EQ(legacy.right[i].entity_id, p1.right[i].entity_id);
    const bool is_match = legacy.right[i].entity_id <
                          legacy_cfg.groups * legacy_cfg.left_per_group;
    if (!is_match) {
      EXPECT_EQ(legacy.right[i].attributes, p1.right[i].attributes);
      continue;
    }
    ++matched;
    renamed += legacy.right[i].attributes[1] != p1.right[i].attributes[1];
  }
  EXPECT_GT(matched, 0u);
  EXPECT_GT(renamed, 0u);
}

TEST(ScaleGeneratorTest, TablesAreDeterministic) {
  ScaleTablesConfig cfg;
  cfg.groups = 16;
  const ScaleTables a = GenerateScaleTables(cfg);
  const ScaleTables b = GenerateScaleTables(cfg);
  ASSERT_EQ(a.left.size(), b.left.size());
  for (size_t i = 0; i < a.left.size(); ++i) {
    EXPECT_EQ(a.left[i].entity_id, b.left[i].entity_id);
    EXPECT_EQ(a.left[i].attributes, b.left[i].attributes);
  }
  for (size_t i = 0; i < a.right.size(); ++i) {
    EXPECT_EQ(a.right[i].entity_id, b.right[i].entity_id);
    EXPECT_EQ(a.right[i].attributes, b.right[i].attributes);
  }
}

}  // namespace
}  // namespace humo::data
