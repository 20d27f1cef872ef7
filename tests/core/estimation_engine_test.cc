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

TEST(EstimationContextTest, LabelSubsetRecallsOnlyTheLabeledSubset) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  const size_t matches = ctx.LabelSubset(2);
  EXPECT_EQ(oracle.cost(), p[2].size());
  EXPECT_EQ(ctx.LabelSubset(2), matches);
  EXPECT_EQ(oracle.cost(), p[2].size()) << "a labeled subset re-asked";

  // Its neighbour is still unknown: labeling it is a miss that pays.
  (void)ctx.LabelSubset(1);
  EXPECT_EQ(oracle.cost(), p[2].size() + p[1].size());
  EXPECT_EQ(ctx.stats().full_label_hits, 1u);
  EXPECT_EQ(ctx.stats().full_label_misses, 2u);
}

TEST(EstimationContextTest, SampleSubsetRecallsOnlyTheSampledSubset) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  Rng rng(5);
  const stats::Stratum st = ctx.SampleSubset(1, 20, &rng);
  EXPECT_EQ(st.population, p[1].size());
  EXPECT_EQ(st.sample_size, 20u);
  const stats::Stratum again = ctx.SampleSubset(1, 20, &rng);
  EXPECT_EQ(again.sample_positives, st.sample_positives);
  EXPECT_EQ(oracle.cost(), 20u);

  // Subset 0 holds no stratum yet: sampling it draws and pays.
  const stats::Stratum other = ctx.SampleSubset(0, 20, &rng);
  EXPECT_EQ(other.population, p[0].size());
  EXPECT_EQ(oracle.cost(), 40u);
  EXPECT_EQ(ctx.stats().stratum_hits, 1u);
  EXPECT_EQ(ctx.stats().stratum_misses, 2u);
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

  // The answered half is the subset's stratum: a sample of that size is a
  // hit that neither draws nor asks.
  Rng rng(3);
  const stats::Stratum half =
      ctx.SampleSubset(4, first_half.size(), &rng);
  EXPECT_EQ(half.sample_size, first_half.size());
  EXPECT_EQ(half.sample_positives, m1);
  EXPECT_FALSE(half.fully_enumerated());
  EXPECT_EQ(ctx.stats().stratum_hits, 1u);
  EXPECT_EQ(rng.NextUint64(), Rng(3).NextUint64()) << "a hit consumed the rng";

  // Re-asking the same pairs is free (served from the oracle's memory).
  const size_t again = ctx.InspectSubsetPairs(4, first_half);
  EXPECT_EQ(again, m1);
  EXPECT_EQ(oracle.cost(), first_half.size());
  EXPECT_EQ(oracle.duplicate_requests(), 0u);

  // Completing the subset makes it fully labeled, and a later LabelSubset
  // is a pure cache hit.
  const size_t m2 = ctx.InspectSubsetPairs(4, second_half);
  const size_t cost_before = oracle.cost();
  EXPECT_EQ(ctx.LabelSubset(4), m1 + m2);
  EXPECT_EQ(oracle.cost(), cost_before);
  EXPECT_EQ(ctx.stats().full_label_hits, 1u);
  EXPECT_EQ(ctx.stats().full_label_misses, 0u);
}

/// LabelSubset after a partial sample must leave the subset's stratum
/// fully enumerated: a later sample of the old size then reads the exact
/// count instead of the stale partial sample, at no new cost.
TEST(EstimationContextTest, LabelSubsetReplacesPartialSampleForLaterDraws) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);

  Rng rng(4);
  const stats::Stratum partial = ctx.SampleSubset(3, 10, &rng);
  ASSERT_EQ(partial.sample_size, 10u);
  const size_t matches = ctx.LabelSubset(3);
  EXPECT_EQ(ctx.stats().full_label_misses, 1u);
  const size_t cost = oracle.cost();
  EXPECT_EQ(cost, p[3].size());

  const stats::Stratum st = ctx.SampleSubset(3, 10, &rng);
  EXPECT_EQ(st.sample_size, st.population);
  EXPECT_EQ(st.population, p[3].size());
  EXPECT_EQ(st.sample_positives, matches);
  EXPECT_EQ(oracle.cost(), cost) << "the second draw re-asked";
  EXPECT_EQ(ctx.stats().stratum_hits, 1u);
}

/// A pure tail append keeps the evidence of the preserved prefix: those
/// subsets hit at zero oracle cost, every later subset misses, and the
/// stored sampling outcome (which indexes the old partition) is dropped.
TEST(EstimationContextTest, PartitionExtensionKeepsOnlyThePreservedPrefix) {
  data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  EstimationContext ctx(&p, &oracle);
  const size_t old_m = p.num_subsets();
  ASSERT_EQ(old_m, 20u);
  std::vector<size_t> labeled(old_m);
  for (size_t k = 0; k < old_m; ++k) labeled[k] = ctx.LabelSubset(k);
  ctx.StoreSamplingOutcome(std::make_shared<const PartialSamplingOutcome>());

  // 400 pairs above every existing similarity land after the old pairs.
  std::vector<data::InstancePair> tail;
  for (uint32_t t = 0; t < 400; ++t)
    tail.push_back({100000 + t, 100000 + t, 1.0, t % 2 == 0});
  const std::vector<size_t> landed = w.MergeSorted(std::move(tail));
  ASSERT_GE(landed.front(), old_m * 200);
  const size_t keep = old_m - 1;
  p.RebuildTail(keep);
  ctx.OnPartitionExtended(keep);
  EXPECT_EQ(ctx.sampling_outcome(), nullptr);
  ASSERT_EQ(p.num_subsets(), old_m + 2);

  const size_t cost = oracle.cost();
  const CacheStats before = ctx.stats();
  for (size_t k = 0; k < keep; ++k) EXPECT_EQ(ctx.LabelSubset(k), labeled[k]);
  EXPECT_EQ(oracle.cost(), cost) << "a preserved subset re-asked";
  EXPECT_EQ(ctx.stats().full_label_hits, before.full_label_hits + keep);
  EXPECT_EQ(ctx.stats().full_label_misses, before.full_label_misses);

  // The last old subset was reset, though its answers are still in the
  // oracle's memory: a miss that costs nothing. The new subsets pay.
  EXPECT_EQ(ctx.LabelSubset(keep), labeled[keep]);
  EXPECT_EQ(oracle.cost(), cost);
  for (size_t k = old_m; k < p.num_subsets(); ++k) (void)ctx.LabelSubset(k);
  EXPECT_EQ(oracle.cost(), cost + 400);
  EXPECT_EQ(ctx.stats().full_label_misses, before.full_label_misses + 3);
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
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
