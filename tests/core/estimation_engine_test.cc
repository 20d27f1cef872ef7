#include "core/estimation_engine.h"

#include <gtest/gtest.h>

#include "core/partition.h"
#include "data/logistic_generator.h"

namespace humo::core {
namespace {

data::Workload MakeWorkload(size_t n = 4000) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = n;
  o.pairs_per_subset = 200;
  o.tau = 14.0;
  o.sigma = 0.05;
  o.seed = 11;
  return data::GenerateLogisticWorkload(o);
}

TEST(SubsetStatsCacheTest, StoresAndRecallsFullCounts) {
  SubsetStatsCache cache(4);
  EXPECT_FALSE(cache.HasFullCount(2));
  cache.SetFullCount(2, 37);
  EXPECT_TRUE(cache.HasFullCount(2));
  EXPECT_EQ(cache.FullCount(2), 37u);
  EXPECT_FALSE(cache.HasFullCount(1));
}

TEST(SubsetStatsCacheTest, StoresAndRecallsStrata) {
  SubsetStatsCache cache(3);
  stats::Stratum st;
  st.population = 200;
  st.sample_size = 20;
  st.sample_positives = 5;
  cache.SetStratum(1, st);
  ASSERT_TRUE(cache.HasStratum(1));
  EXPECT_EQ(cache.StratumAt(1).sample_positives, 5u);
  EXPECT_FALSE(cache.HasStratum(0));
}

TEST(EstimationContextTest, LabelSubsetChargesOnceAndCachesCount) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  const size_t first = ctx.LabelSubset(3);
  const size_t cost_after_first = oracle.cost();
  EXPECT_EQ(cost_after_first, p[3].size());
  EXPECT_EQ(ctx.stats().full_label_misses, 1u);
  EXPECT_EQ(ctx.stats().oracle_pairs_inspected, p[3].size());

  const size_t second = ctx.LabelSubset(3);
  EXPECT_EQ(first, second);
  EXPECT_EQ(oracle.cost(), cost_after_first) << "second call re-asked";
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
  EXPECT_EQ(ctx.stats().full_label_hits, 1u);
  EXPECT_EQ(ctx.stats().oracle_pairs_saved, p[3].size());
}

TEST(EstimationContextTest, BatchInspectCostParityWithSerialLabel) {
  // The batched path must charge exactly what per-pair Label() charges:
  // each distinct pair once.
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);

  Oracle serial(&w);
  size_t serial_matches = 0;
  for (size_t i = p[5].begin; i < p[5].end; ++i)
    serial_matches += serial.Label(i);

  Oracle batched(&w);
  EstimationContext ctx(&p, &batched);
  const size_t batch_matches = ctx.LabelSubset(5);

  EXPECT_EQ(batch_matches, serial_matches);
  EXPECT_EQ(batched.cost(), serial.cost());
  EXPECT_EQ(batched.total_requests(), serial.total_requests());
}

TEST(EstimationContextTest, SampleSubsetMemoizesStratum) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  Rng rng(9);
  const stats::Stratum first = ctx.SampleSubset(2, 20, &rng);
  EXPECT_EQ(first.sample_size, 20u);
  const size_t cost_after_first = oracle.cost();
  EXPECT_EQ(cost_after_first, 20u);
  EXPECT_EQ(ctx.stats().stratum_misses, 1u);

  // Second request (even from a different rng) is served from the cache.
  Rng other(12345);
  const stats::Stratum second = ctx.SampleSubset(2, 20, &other);
  EXPECT_EQ(second.sample_positives, first.sample_positives);
  EXPECT_EQ(oracle.cost(), cost_after_first);
  EXPECT_EQ(ctx.stats().stratum_hits, 1u);
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
}

TEST(EstimationContextTest, SampleSubsetTopsUpWhenCachedSampleTooSmall) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  Rng rng(9);
  (void)ctx.SampleSubset(2, 10, &rng);
  const stats::Stratum bigger = ctx.SampleSubset(2, 50, &rng);
  EXPECT_EQ(bigger.sample_size, 50u);
  // The fresh 50-pair draw may overlap the earlier 10: overlapping pairs
  // are served from the oracle's memory, so the distinct cost is at most
  // 60 and no duplicate request is ever issued.
  EXPECT_LE(oracle.cost(), 60u);
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
}

TEST(EstimationContextTest, FullLabelServesLaterSampling) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  const size_t matches = ctx.LabelSubset(4);
  const size_t cost = oracle.cost();
  Rng rng(1);
  const stats::Stratum st = ctx.SampleSubset(4, 200, &rng);
  EXPECT_TRUE(st.fully_enumerated());
  EXPECT_EQ(st.sample_positives, matches);
  EXPECT_EQ(oracle.cost(), cost) << "sampling re-asked a labeled subset";
}

TEST(EstimationContextTest, FullyEnumeratedStratumServesLaterLabeling) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  Rng rng(2);
  const stats::Stratum st = ctx.SampleSubset(6, p[6].size(), &rng);
  ASSERT_TRUE(st.fully_enumerated());
  const size_t cost = oracle.cost();
  const size_t matches = ctx.LabelSubset(6);
  EXPECT_EQ(matches, st.sample_positives);
  EXPECT_EQ(oracle.cost(), cost) << "labeling re-asked a sampled subset";
  EXPECT_EQ(ctx.stats().full_label_hits, 1u);
}

TEST(EstimationContextTest, WindowProportionsMatchDirectComputation) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);
  for (size_t k = 2; k <= 8; ++k) ctx.LabelSubset(k);

  // Window of 3 subsets on the upper side of DH=[2,8]: subsets 8,7,6.
  size_t pairs = 0, matches = 0;
  for (size_t k = 6; k <= 8; ++k) {
    pairs += p[k].size();
    matches += ctx.LabelSubset(k);
  }
  const double expect_upper =
      static_cast<double>(matches) / static_cast<double>(pairs);
  EXPECT_DOUBLE_EQ(ctx.UpperWindowProportion(2, 8, 3), expect_upper);

  // Window of 3 on the lower side: subsets 2,3,4.
  pairs = 0;
  matches = 0;
  for (size_t k = 2; k <= 4; ++k) {
    pairs += p[k].size();
    matches += ctx.LabelSubset(k);
  }
  const double expect_lower =
      static_cast<double>(matches) / static_cast<double>(pairs);
  EXPECT_DOUBLE_EQ(ctx.LowerWindowProportion(2, 8, 3), expect_lower);

  // A window wider than DH clips to DH.
  EXPECT_GT(ctx.UpperWindowProportion(2, 8, 100), 0.0);
}

TEST(EstimationContextTest, StoresSamplingOutcome) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);
  EXPECT_EQ(ctx.sampling_outcome(), nullptr);
  auto outcome = std::make_shared<const PartialSamplingOutcome>();
  ctx.StoreSamplingOutcome(outcome);
  EXPECT_EQ(ctx.sampling_outcome(), outcome);
}

TEST(EstimationContextTest, InspectSubsetPairsMergesIntoStratumAndPromotes) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);
  const Subset& s = p[4];

  // First half of the subset's pairs.
  std::vector<size_t> first_half, second_half;
  for (size_t i = s.begin; i < s.begin + s.size() / 2; ++i)
    first_half.push_back(i);
  for (size_t i = s.begin + s.size() / 2; i < s.end; ++i)
    second_half.push_back(i);
  const size_t m1 = ctx.InspectSubsetPairs(4, first_half);
  EXPECT_EQ(oracle.cost(), first_half.size());
  ASSERT_TRUE(ctx.cache().HasStratum(4));
  EXPECT_EQ(ctx.cache().StratumAt(4).sample_size, first_half.size());
  EXPECT_EQ(ctx.cache().StratumAt(4).sample_positives, m1);
  EXPECT_FALSE(ctx.cache().HasFullCount(4));

  // Re-asking the same pairs is free (served from the oracle's memory).
  const size_t again = ctx.InspectSubsetPairs(4, first_half);
  EXPECT_EQ(again, m1);
  EXPECT_EQ(oracle.cost(), first_half.size());
  EXPECT_EQ(oracle.duplicate_requests(), 0u);

  // Completing the subset promotes the stratum to a full count, and a later
  // LabelSubset is a pure cache hit.
  const size_t m2 = ctx.InspectSubsetPairs(4, second_half);
  EXPECT_TRUE(ctx.cache().HasFullCount(4));
  const size_t cost_before = oracle.cost();
  EXPECT_EQ(ctx.LabelSubset(4), m1 + m2);
  EXPECT_EQ(oracle.cost(), cost_before);
}

TEST(OracleBatchTest, InspectBatchMatchesSerialAnswers) {
  const data::Workload w = MakeWorkload();
  Oracle a(&w, /*error_rate=*/0.2, /*seed=*/5);
  Oracle b(&w, /*error_rate=*/0.2, /*seed=*/5);
  std::vector<size_t> indices = {0, 5, 10, 5, 99, 0};
  const auto batch = a.InspectBatch(indices);
  ASSERT_EQ(batch.size(), indices.size());
  for (size_t t = 0; t < indices.size(); ++t) {
    EXPECT_EQ(static_cast<bool>(batch[t]), b.Label(indices[t])) << t;
  }
  EXPECT_EQ(a.cost(), b.cost());
  EXPECT_EQ(a.cost(), 4u) << "distinct pairs only";
  EXPECT_EQ(a.duplicate_requests(), 2u);
}

}  // namespace
}  // namespace humo::core
