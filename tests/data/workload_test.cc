#include "data/workload.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace humo::data {
namespace {

Workload MakeWorkload() {
  std::vector<InstancePair> pairs = {
      {0, 0, 0.9, true},
      {1, 1, 0.1, false},
      {2, 2, 0.5, true},
      {3, 3, 0.5, false},
      {4, 4, 0.3, false},
  };
  return Workload(std::move(pairs));
}

TEST(WorkloadTest, ConstructionSorts) {
  const Workload w = MakeWorkload();
  ASSERT_EQ(w.size(), 5u);
  for (size_t i = 1; i < w.size(); ++i)
    EXPECT_LE(w[i - 1].similarity, w[i].similarity);
}

TEST(WorkloadTest, TieBreakDeterministic) {
  // Pairs with equal similarity are ordered by ids.
  const Workload w = MakeWorkload();
  // similarity 0.5 pairs are ids 2 and 3 in id order.
  EXPECT_EQ(w[2].left_id, 2u);
  EXPECT_EQ(w[3].left_id, 3u);
}

TEST(WorkloadTest, CountMatches) {
  EXPECT_EQ(MakeWorkload().CountMatches(), 2u);
  EXPECT_EQ(Workload().CountMatches(), 0u);
}

TEST(WorkloadTest, GroundTruthLabels) {
  const Workload w = MakeWorkload();
  const auto labels = w.GroundTruthLabels();
  ASSERT_EQ(labels.size(), 5u);
  // Sorted order: 0.1(F), 0.3(F), 0.5(T), 0.5(F), 0.9(T).
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[2], 1);
  EXPECT_EQ(labels[4], 1);
}

TEST(WorkloadTest, AddThenSort) {
  Workload w;
  w.Add({0, 0, 0.7, false});
  w.Add({1, 1, 0.2, true});
  w.SortBySimilarity();
  EXPECT_DOUBLE_EQ(w[0].similarity, 0.2);
}

TEST(SummarizeTest, BasicStats) {
  const auto s = Summarize(MakeWorkload());
  EXPECT_EQ(s.num_pairs, 5u);
  EXPECT_EQ(s.num_matches, 2u);
  EXPECT_DOUBLE_EQ(s.min_similarity, 0.1);
  EXPECT_DOUBLE_EQ(s.max_similarity, 0.9);
  EXPECT_DOUBLE_EQ(s.match_fraction, 0.4);
}

TEST(SummarizeTest, EmptyWorkload) {
  const auto s = Summarize(Workload{});
  EXPECT_EQ(s.num_pairs, 0u);
  EXPECT_DOUBLE_EQ(s.match_fraction, 0.0);
}

TEST(WorkloadSoaTest, ColumnsMirrorPairView) {
  const Workload w = MakeWorkload();
  ASSERT_EQ(w.similarities().size(), w.size());
  ASSERT_EQ(w.left_ids().size(), w.size());
  ASSERT_EQ(w.right_ids().size(), w.size());
  ASSERT_EQ(w.match_labels().size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    const InstancePair p = w[i];
    EXPECT_EQ(p.similarity, w.Similarity(i));
    EXPECT_EQ(p.similarity, w.similarities()[i]);
    EXPECT_EQ(p.left_id, w.left_ids()[i]);
    EXPECT_EQ(p.right_id, w.right_ids()[i]);
    EXPECT_EQ(p.is_match, w.IsMatch(i));
    EXPECT_EQ(p.is_match, w.match_labels()[i] != 0);
  }
  const auto materialized = w.MaterializePairs();
  ASSERT_EQ(materialized.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(materialized[i].similarity, w.Similarity(i));
    EXPECT_EQ(materialized[i].left_id, w.left_ids()[i]);
  }
}

/// Deterministic hash-based pair stream, heavy on exact similarity ties so
/// the radix sort's tiebreak cleanup is exercised.
std::vector<InstancePair> TieHeavyPairs(size_t n) {
  std::vector<InstancePair> pairs;
  pairs.reserve(n);
  uint64_t state = 42;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Only 97 distinct similarity values across n pairs.
    const double sim =
        static_cast<double>((state >> 33) % 97) / 96.0;
    pairs.push_back({static_cast<uint32_t>(state % 5000),
                     static_cast<uint32_t>((state >> 13) % 5000), sim,
                     (state & 1) != 0});
  }
  return pairs;
}

TEST(WorkloadSoaTest, RadixSortMatchesComparisonSortIncludingTies) {
  // Above the radix threshold (2048) AND with massive similarity ties: the
  // result must equal a std::sort under PairLess element for element.
  auto pairs = TieHeavyPairs(10000);
  auto reference = pairs;
  std::sort(reference.begin(), reference.end(), PairLess);

  const Workload w{std::move(pairs)};
  ASSERT_EQ(w.size(), reference.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w.Similarity(i), reference[i].similarity) << "at " << i;
    EXPECT_EQ(w.left_ids()[i], reference[i].left_id) << "at " << i;
    EXPECT_EQ(w.right_ids()[i], reference[i].right_id) << "at " << i;
  }
}

TEST(WorkloadSoaTest, FromColumnsEqualsPairConstruction) {
  auto pairs = TieHeavyPairs(3000);
  std::vector<uint32_t> lefts, rights;
  std::vector<double> sims;
  std::vector<uint8_t> labels;
  for (const auto& p : pairs) {
    lefts.push_back(p.left_id);
    rights.push_back(p.right_id);
    sims.push_back(p.similarity);
    labels.push_back(p.is_match ? 1 : 0);
  }
  const Workload from_cols =
      Workload::FromColumns(std::move(lefts), std::move(rights),
                            std::move(sims), std::move(labels));
  const Workload from_pairs{std::move(pairs)};
  ASSERT_EQ(from_cols.size(), from_pairs.size());
  EXPECT_EQ(from_cols.similarities(), from_pairs.similarities());
  EXPECT_EQ(from_cols.left_ids(), from_pairs.left_ids());
  EXPECT_EQ(from_cols.right_ids(), from_pairs.right_ids());
  EXPECT_EQ(from_cols.match_labels(), from_pairs.match_labels());
}

TEST(WorkloadSoaTest, IndexOfSortedFindsEveryPair) {
  const Workload w{TieHeavyPairs(5000)};
  for (size_t i = 0; i < w.size(); i += 97) {
    const InstancePair p = w[i];
    const size_t found = w.IndexOfSorted(p);
    ASSERT_LT(found, w.size());
    // Exact-duplicate (sim, left, right) keys may map to an earlier twin;
    // the found pair must be identical in every keyed field.
    EXPECT_EQ(w.Similarity(found), p.similarity);
    EXPECT_EQ(w.left_ids()[found], p.left_id);
    EXPECT_EQ(w.right_ids()[found], p.right_id);
  }
  EXPECT_EQ(w.IndexOfSorted({9999, 9999, 0.123456789, false}), w.size());
}

TEST(WorkloadSoaTest, MergeSortedEqualsSortOfConcatenationAtRadixScale) {
  auto base_pairs = TieHeavyPairs(6000);
  auto incoming = TieHeavyPairs(4000);
  for (auto& p : incoming) p.left_id += 5000;  // distinct id space

  std::vector<InstancePair> all = base_pairs;
  all.insert(all.end(), incoming.begin(), incoming.end());
  const Workload reference{std::move(all)};

  Workload merged{std::move(base_pairs)};
  merged.MergeSorted(std::move(incoming));
  ASSERT_EQ(merged.size(), reference.size());
  EXPECT_EQ(merged.similarities(), reference.similarities());
  EXPECT_EQ(merged.left_ids(), reference.left_ids());
  EXPECT_EQ(merged.right_ids(), reference.right_ids());
  EXPECT_EQ(merged.match_labels(), reference.match_labels());
}

}  // namespace
}  // namespace humo::data
