#include "core/streaming_resolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/partial_sampling_optimizer.h"
#include "core/solution.h"
#include "data/pair_simulator.h"
#include "data/workload_stream.h"
#include "eval/evaluation.h"

namespace humo {
namespace {

/// The streaming headline contracts (ISSUE 4): ingesting a whole stream and
/// certifying once must reproduce the one-shot run on the concatenated
/// workload bit for bit — partition, labeling, solution, and oracle cost —
/// at any shard count, arrival order, and thread count, with zero duplicate
/// oracle requests across epochs; re-certification after growth must reuse
/// every carried answer.
class StreamingResolverTest : public ::testing::Test {
 protected:
  static data::Workload ds_;

  static void SetUpTestSuite() {
    ds_ = data::SimulatePairs(data::DsConfigSmall(555, 12000));
  }
};

data::Workload StreamingResolverTest::ds_;

struct OneShotRun {
  core::HumoSolution solution;
  core::ResolutionResult resolution;
  size_t cost = 0;
  size_t duplicates = 0;
};

OneShotRun RunOneShotSamp(const data::Workload& w,
                          const core::QualityRequirement& req,
                          const core::PartialSamplingOptions& sampling,
                          size_t subset_size) {
  core::SubsetPartition partition(&w, subset_size);
  core::Oracle oracle(&w);
  core::EstimationContext ctx(&partition, &oracle);
  core::PartialSamplingOptimizer samp(sampling);
  auto sol = samp.Optimize(&ctx, req);
  EXPECT_TRUE(sol.ok()) << sol.status().message();
  OneShotRun run;
  run.solution = *sol;
  run.resolution = core::ApplySolution(partition, *sol, &oracle);
  run.cost = oracle.cost();
  run.duplicates = oracle.duplicate_requests();
  return run;
}

core::StreamingOptions DefaultStreamingOptions() {
  core::StreamingOptions options;
  options.sampling.seed = 21;
  return options;
}

void ExpectSolutionsEqual(const core::HumoSolution& a,
                          const core::HumoSolution& b) {
  EXPECT_EQ(a.empty, b.empty);
  EXPECT_EQ(a.h_lo, b.h_lo);
  EXPECT_EQ(a.h_hi, b.h_hi);
}

void ExpectPartitionMatchesFresh(const core::SubsetPartition& streamed,
                                 const data::Workload& base,
                                 size_t subset_size) {
  core::SubsetPartition fresh(&base, subset_size);
  ASSERT_EQ(streamed.num_subsets(), fresh.num_subsets());
  for (size_t k = 0; k < fresh.num_subsets(); ++k) {
    EXPECT_EQ(streamed[k].begin, fresh[k].begin);
    EXPECT_EQ(streamed[k].end, fresh[k].end);
    // Bitwise: the rebuild paths accumulate in the constructor's order.
    EXPECT_EQ(streamed[k].avg_similarity, fresh[k].avg_similarity) << k;
  }
}

/// Every pair the resolver's oracle answered carries that answer in the
/// provisional labeling.
void ExpectCarriedAnswersServed(const core::StreamingResolver& resolver) {
  const std::vector<int>& labels = resolver.provisional_labels();
  ASSERT_EQ(labels.size(), resolver.cumulative().size());
  for (size_t i = 0; i < labels.size(); ++i) {
    if (!resolver.oracle().WasAsked(i)) continue;
    ASSERT_EQ(labels[i], resolver.oracle().CachedAnswer(i) ? 1 : 0) << i;
  }
}

TEST_F(StreamingResolverTest, CertifyOnceIsBitIdenticalToOneShot) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::StreamingOptions options = DefaultStreamingOptions();
  const OneShotRun oneshot =
      RunOneShotSamp(ds_, req, options.sampling, core::kStreamingSubsetSize);

  for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    for (const data::ArrivalOrder order :
         {data::ArrivalOrder::kShuffled,
          data::ArrivalOrder::kSimilarityAscending}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " order=" + std::to_string(static_cast<int>(order)));
      data::WorkloadStreamOptions stream_options;
      stream_options.num_shards = shards;
      stream_options.order = order;
      data::WorkloadStream stream(&ds_, stream_options);

      core::StreamingResolver resolver(options, req);
      data::Shard shard;
      while (stream.Next(&shard)) resolver.Ingest(std::move(shard));
      ASSERT_EQ(resolver.cumulative().size(), ds_.size());

      auto cert = resolver.Certify();
      ASSERT_TRUE(cert.ok()) << cert.status().message();

      ExpectPartitionMatchesFresh(resolver.partition(), ds_,
                                  core::kStreamingSubsetSize);
      ExpectSolutionsEqual(cert->solution, oneshot.solution);
      EXPECT_EQ(cert->resolution.labels, oneshot.resolution.labels);
      EXPECT_EQ(cert->fresh_inspections, oneshot.cost);
      EXPECT_EQ(cert->total_inspections, oneshot.cost);
      EXPECT_EQ(cert->reused_answers, 0u);
      EXPECT_TRUE(cert->certified);
      EXPECT_EQ(resolver.total_duplicate_requests(), 0u);
    }
  }
}

TEST_F(StreamingResolverTest, ThreadCountInvariance) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::StreamingOptions options = DefaultStreamingOptions();

  std::vector<int> labels_at_1;
  core::HumoSolution solution_at_1;
  size_t cost_at_1 = 0;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool::SetGlobalThreads(threads);
    data::WorkloadStreamOptions stream_options;
    stream_options.num_shards = 4;
    data::WorkloadStream stream(&ds_, stream_options);
    core::StreamingResolver resolver(options, req);
    data::Shard shard;
    while (stream.Next(&shard)) resolver.Ingest(std::move(shard));
    auto cert = resolver.Certify();
    ASSERT_TRUE(cert.ok());
    if (threads == 1) {
      labels_at_1 = cert->resolution.labels;
      solution_at_1 = cert->solution;
      cost_at_1 = cert->fresh_inspections;
    } else {
      ExpectSolutionsEqual(cert->solution, solution_at_1);
      EXPECT_EQ(cert->resolution.labels, labels_at_1);
      EXPECT_EQ(cert->fresh_inspections, cost_at_1);
    }
  }
  ThreadPool::SetGlobalThreads(0);  // restore the environment default
}

TEST_F(StreamingResolverTest, RecertifyAfterGrowthMatchesOneShotAndReuses) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::StreamingOptions options = DefaultStreamingOptions();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 4;
  stream_options.order = data::ArrivalOrder::kShuffled;
  data::WorkloadStream stream(&ds_, stream_options);

  core::StreamingResolver resolver(options, req);
  data::Shard shard;
  for (size_t e = 0; e < 2; ++e) {
    ASSERT_TRUE(stream.Next(&shard));
    resolver.Ingest(std::move(shard));
  }
  auto first = resolver.Certify();
  ASSERT_TRUE(first.ok());
  const size_t first_cost = first->fresh_inspections;
  EXPECT_GT(first_cost, 0u);

  // Mid-stream certificate holds on the pairs seen so far.
  const auto mid_quality =
      eval::QualityOf(resolver.cumulative(), first->resolution.labels);
  EXPECT_GE(mid_quality.precision, 0.88);
  EXPECT_GE(mid_quality.recall, 0.88);

  while (stream.Next(&shard)) resolver.Ingest(std::move(shard));
  auto second = resolver.Certify();
  ASSERT_TRUE(second.ok());

  // An interior merge re-keys the evidence; the second certification then
  // walks exactly the one-shot path (same RNG draws, same answers) and is
  // bit-identical to the cold run on the grown workload — but pays only
  // for pairs no earlier epoch answered.
  const OneShotRun oneshot =
      RunOneShotSamp(ds_, req, options.sampling, core::kStreamingSubsetSize);
  ExpectSolutionsEqual(second->solution, oneshot.solution);
  EXPECT_EQ(second->resolution.labels, oneshot.resolution.labels);
  EXPECT_LT(second->fresh_inspections, oneshot.cost);
  EXPECT_GT(second->reused_answers, 0u);
  EXPECT_EQ(second->total_inspections,
            first_cost + second->fresh_inspections);
  EXPECT_EQ(resolver.total_duplicate_requests(), 0u);
}

TEST_F(StreamingResolverTest, PureAppendStreamCarriesStateAcrossEpochs) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::StreamingOptions options = DefaultStreamingOptions();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 4;
  stream_options.order = data::ArrivalOrder::kSimilarityAscending;
  data::WorkloadStream stream(&ds_, stream_options);

  core::StreamingResolver resolver(options, req);
  data::Shard shard;
  for (size_t e = 0; e < 2; ++e) {
    ASSERT_TRUE(stream.Next(&shard));
    const core::EpochReport& report = resolver.Ingest(std::move(shard));
    EXPECT_TRUE(report.pure_append);
    ExpectPartitionMatchesFresh(resolver.partition(), resolver.cumulative(),
                                core::kStreamingSubsetSize);
  }
  auto first = resolver.Certify();
  ASSERT_TRUE(first.ok());
  const size_t first_cost = first->fresh_inspections;

  while (stream.Next(&shard)) {
    const core::EpochReport& report = resolver.Ingest(std::move(shard));
    EXPECT_TRUE(report.pure_append);
    // Appends never invalidate the carried answers.
    EXPECT_EQ(report.evidence_pairs, first_cost);
  }
  auto second = resolver.Certify();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->certified);
  // Carried subset statistics + answers make regrowing the certificate
  // cheaper than the cold one-shot run on the grown workload.
  const OneShotRun oneshot =
      RunOneShotSamp(ds_, req, options.sampling, core::kStreamingSubsetSize);
  EXPECT_LT(second->fresh_inspections, oneshot.cost);
  EXPECT_EQ(resolver.total_duplicate_requests(), 0u);
  // Every carried answer is served verbatim.
  ExpectCarriedAnswersServed(resolver);
  // Final quality still meets the requirement on this realization.
  const auto quality =
      eval::QualityOf(resolver.cumulative(), second->resolution.labels);
  EXPECT_GE(quality.precision, 0.88);
  EXPECT_GE(quality.recall, 0.88);
}

TEST_F(StreamingResolverTest, RiskCertifierCostsAtMostOneShotSamp) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::StreamingOptions options = DefaultStreamingOptions();
  options.certifier = core::StreamCertifier::kRisk;
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 4;
  data::WorkloadStream stream(&ds_, stream_options);

  core::StreamingResolver resolver(options, req);
  data::Shard shard;
  while (stream.Next(&shard)) resolver.Ingest(std::move(shard));
  auto cert = resolver.Certify();
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->certified);

  const OneShotRun oneshot =
      RunOneShotSamp(ds_, req, options.sampling, core::kStreamingSubsetSize);
  EXPECT_LE(cert->total_inspections, oneshot.cost);
  EXPECT_EQ(resolver.total_duplicate_requests(), 0u);
  const auto quality =
      eval::QualityOf(resolver.cumulative(), cert->resolution.labels);
  EXPECT_GE(quality.precision, 0.88);
  EXPECT_GE(quality.recall, 0.88);
}

TEST_F(StreamingResolverTest, ProvisionalServingStateAfterCertification) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  const core::StreamingOptions options = DefaultStreamingOptions();
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 6;
  data::WorkloadStream stream(&ds_, stream_options);

  core::StreamingResolver resolver(options, req);
  data::Shard shard;
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_TRUE(stream.Next(&shard));
    const core::EpochReport& report = resolver.Ingest(std::move(shard));
    // No evidence yet: ingest is oracle-free, so no estimate either.
    EXPECT_FALSE(report.has_estimate);
    EXPECT_EQ(report.evidence_pairs, 0u);
  }
  ASSERT_TRUE(resolver.Certify().ok());

  while (stream.Next(&shard)) {
    const core::EpochReport& report = resolver.Ingest(std::move(shard));
    EXPECT_GT(report.evidence_pairs, 0u);
    // The certificate's model estimates every later epoch.
    EXPECT_TRUE(report.has_estimate);
    EXPECT_GT(report.est_precision, 0.0);
    EXPECT_LE(report.est_precision, 1.0);
    EXPECT_GT(report.est_recall, 0.0);
    EXPECT_LE(report.est_recall, 1.0);
  }
  // The provisional labeling (carried answers + the certificate model's
  // conditioned subset labels) is a usable serving surface between
  // certifications on this realization.
  ASSERT_EQ(resolver.provisional_labels().size(), resolver.cumulative().size());
  const auto quality =
      eval::QualityOf(resolver.cumulative(), resolver.provisional_labels());
  EXPECT_GE(quality.precision, 0.6);
  EXPECT_GE(quality.recall, 0.6);
}

// Before any certificate there is no model: carried answers are served
// verbatim and every other pair takes its subset's side of the similarity
// midpoint, with no estimate.
TEST_F(StreamingResolverTest, ServingBeforeCertificateSplitsAtMidpoint) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::StreamingResolver resolver(DefaultStreamingOptions(), req);
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 4;
  data::WorkloadStream stream(&ds_, stream_options);
  data::Shard shard;
  for (size_t e = 0; e < 2; ++e) {
    ASSERT_TRUE(stream.Next(&shard));
    resolver.Ingest(std::move(shard));
  }
  // Out-of-band reviews of every 37th pair, answered contrary to ground
  // truth so that no machine rule can reproduce them by chance.
  const data::Workload& w = resolver.cumulative();
  std::vector<size_t> reviewed;
  for (size_t i = 0; i < w.size(); i += 37) reviewed.push_back(i);
  for (size_t i : reviewed)
    ASSERT_TRUE(resolver.PreloadEvidence(w[i], !w.IsMatch(i)));
  const core::EpochReport& report = resolver.RefreshServing();
  EXPECT_FALSE(report.has_estimate);
  EXPECT_EQ(report.evidence_pairs, reviewed.size());

  const double mid = 0.5 * (w[0].similarity + w[w.size() - 1].similarity);
  std::vector<int> expected(w.size(), 0);
  for (size_t k = 0; k < resolver.partition().num_subsets(); ++k) {
    const core::Subset& s = resolver.partition()[k];
    for (size_t i = s.begin; i < s.end; ++i)
      expected[i] = s.avg_similarity >= mid ? 1 : 0;
  }
  for (size_t i : reviewed) expected[i] = w.IsMatch(i) ? 0 : 1;
  EXPECT_EQ(resolver.provisional_labels(), expected);
}

// After a certificate, serving conditions the certificate's model on each
// subset's carried answers. Reviews that contradict a subset's prior move
// its unanswered pairs with them: ConditionSubset does not let a
// contradicted prior outvote the evidence.
TEST(StreamingServingTest, ReviewsThatContradictThePriorMoveTheSubset) {
  const data::Workload full = data::SimulatePairs(data::DsConfig(555));
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::StreamingResolver resolver(DefaultStreamingOptions(), req);
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 4;
  data::WorkloadStream stream(&full, stream_options);
  data::Shard shard;
  while (stream.Next(&shard)) resolver.Ingest(std::move(shard));
  ASSERT_TRUE(resolver.Certify().ok());
  ASSERT_TRUE(resolver.serving_report().has_estimate);
  ExpectCarriedAnswersServed(resolver);

  // The lowest and highest subsets no inspection reached: the model's
  // prior labels them non-match and match respectively.
  const core::SubsetPartition& partition = resolver.partition();
  const core::Oracle& oracle = resolver.oracle();
  auto uninspected = [&](size_t k) {
    for (size_t i = partition[k].begin; i < partition[k].end; ++i)
      if (oracle.WasAsked(i)) return false;
    return true;
  };
  size_t low = 0;
  while (low < partition.num_subsets() && !uninspected(low)) ++low;
  size_t high = partition.num_subsets() - 1;
  while (high > low && !uninspected(high)) --high;
  ASSERT_LT(low, high);
  const std::vector<int> before = resolver.provisional_labels();
  ASSERT_EQ(before[partition[low].begin], 0);
  ASSERT_EQ(before[partition[high].begin], 1);

  // Reviews answer the first half of each subset against its prior.
  const data::Workload& w = resolver.cumulative();
  auto review_first_half = [&](size_t k, bool answer) {
    const core::Subset& s = partition[k];
    for (size_t i = s.begin; i < s.begin + s.size() / 2; ++i)
      ASSERT_TRUE(resolver.PreloadEvidence(w[i], answer));
  };
  review_first_half(low, true);
  review_first_half(high, false);
  const core::EpochReport& report = resolver.RefreshServing();
  EXPECT_TRUE(report.has_estimate);
  ExpectCarriedAnswersServed(resolver);
  const std::vector<int>& after = resolver.provisional_labels();
  for (size_t i = partition[low].begin; i < partition[low].end; ++i)
    EXPECT_EQ(after[i], 1) << i;
  for (size_t i = partition[high].begin; i < partition[high].end; ++i)
    EXPECT_EQ(after[i], 0) << i;
  // No other subset moved.
  for (size_t k = 0; k < partition.num_subsets(); ++k) {
    if (k == low || k == high) continue;
    for (size_t i = partition[k].begin; i < partition[k].end; ++i)
      ASSERT_EQ(after[i], before[i]) << i;
  }
}

/// (pair, answer) of every answered index, in index order.
std::vector<std::pair<data::InstancePair, bool>> AnsweredPairs(
    const core::StreamingResolver& resolver) {
  std::vector<std::pair<data::InstancePair, bool>> out;
  for (size_t i = 0; i < resolver.cumulative().size(); ++i) {
    if (resolver.oracle().WasAsked(i)) {
      out.emplace_back(resolver.cumulative()[i],
                       resolver.oracle().CachedAnswer(i));
    }
  }
  return out;
}

/// Ingests `shard` and checks landed(): the pairs at its positions are the
/// shard's pairs in sorted order, the other positions hold the old pairs in
/// their old order, and it starts at or past the old size exactly on a
/// pure append. Then checks the answers moved with their pairs: every
/// answered index after the merge is the one an identity re-key
/// (IndexOfSorted) finds for a pair answered before it, with the same
/// answer, and no counter moved.
void IngestAndCheckAnswersMoved(core::StreamingResolver* resolver,
                                data::Shard shard, bool expect_append) {
  const auto before = AnsweredPairs(*resolver);
  const std::vector<data::InstancePair> old_pairs =
      resolver->cumulative().MaterializePairs();
  std::vector<data::InstancePair> shard_pairs = shard.pairs;
  std::sort(shard_pairs.begin(), shard_pairs.end(), data::PairLess);
  const size_t inspections = resolver->total_inspections();
  const size_t cost = resolver->oracle().cost();
  const size_t requests = resolver->oracle().total_requests();
  ASSERT_EQ(resolver->Ingest(std::move(shard)).pure_append, expect_append);

  const data::Workload& w = resolver->cumulative();
  const std::vector<size_t>& landed = resolver->landed();
  ASSERT_FALSE(landed.empty());
  ASSERT_EQ(landed.size(), shard_pairs.size());
  ASSERT_EQ(w.size(), old_pairs.size() + landed.size());
  EXPECT_EQ(landed.front() >= old_pairs.size(), expect_append);
  size_t next_landed = 0;
  size_t next_old = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const bool is_landed =
        next_landed < landed.size() && landed[next_landed] == i;
    const data::InstancePair& want =
        is_landed ? shard_pairs[next_landed++] : old_pairs[next_old++];
    const data::InstancePair got = w[i];
    ASSERT_TRUE(got.left_id == want.left_id &&
                got.right_id == want.right_id &&
                got.similarity == want.similarity &&
                got.is_match == want.is_match)
        << i << (is_landed ? " landed" : " old");
  }
  ASSERT_EQ(next_landed, landed.size());
  std::vector<char> expected(w.size(), 0);
  for (const auto& [pair, answer] : before) {
    const size_t idx = w.IndexOfSorted(pair);
    ASSERT_LT(idx, w.size());
    ASSERT_TRUE(resolver->oracle().WasAsked(idx)) << idx;
    EXPECT_EQ(resolver->oracle().CachedAnswer(idx), answer) << idx;
    EXPECT_EQ(w.IsMatch(idx), pair.is_match) << idx;
    expected[idx] = 1;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(resolver->oracle().WasAsked(i), expected[i] != 0) << i;
  }
  EXPECT_EQ(resolver->total_inspections(), inspections);
  EXPECT_EQ(resolver->oracle().cost(), cost);
  EXPECT_EQ(resolver->oracle().total_requests(), requests);
  ExpectCarriedAnswersServed(*resolver);
}

TEST_F(StreamingResolverTest, InteriorMergesMoveAnswersWithTheirPairs) {
  // Shuffled shards of the lower 11,000 pairs (interior merges), inspected
  // answers from certifications and preloaded ones flipped against the
  // truth, then the top 1,000 pairs as a pure append, then a shard that
  // repeats an answered pair.
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::StreamingResolver resolver(DefaultStreamingOptions(), req);
  const size_t low = 11000;
  std::vector<data::InstancePair> lower;
  for (size_t i = 0; i < low; ++i) lower.push_back(ds_[i]);
  const data::Workload lower_w(std::move(lower));
  data::WorkloadStreamOptions stream_options;
  stream_options.num_shards = 5;
  stream_options.order = data::ArrivalOrder::kShuffled;
  stream_options.seed = 77;
  data::WorkloadStream stream(&lower_w, stream_options);

  data::Shard shard;
  size_t epoch = 0;
  while (stream.Next(&shard)) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    IngestAndCheckAnswersMoved(&resolver, std::move(shard),
                               /*expect_append=*/epoch == 0);
    // Preload a few unanswered pairs with the wrong answer, so a moved
    // answer cannot be mistaken for the pair's ground truth.
    const data::Workload& w = resolver.cumulative();
    for (size_t i = epoch; i < w.size(); i += 97) {
      if (!resolver.oracle().WasAsked(i)) {
        ASSERT_TRUE(resolver.PreloadEvidence(w[i], !w.IsMatch(i)));
      }
    }
    ASSERT_TRUE(resolver.Certify().ok());
    ++epoch;
  }
  ASSERT_GT(resolver.oracle().preloaded(), 0u);
  ASSERT_GT(resolver.oracle().cost(), 0u);

  data::Shard top;
  for (size_t i = low; i < ds_.size(); ++i) top.pairs.push_back(ds_[i]);
  {
    SCOPED_TRACE("pure append");
    IngestAndCheckAnswersMoved(&resolver, std::move(top),
                               /*expect_append=*/true);
  }
  ASSERT_TRUE(resolver.Certify().ok());

  const data::Workload& w = resolver.cumulative();
  size_t answered = w.size() / 2;
  while (!resolver.oracle().WasAsked(answered)) ++answered;
  data::Shard repeat;
  repeat.pairs = {w[answered], ds_[0]};
  repeat.pairs[1].left_id += 100000;  // a new pair at the bottom
  {
    SCOPED_TRACE("repeated pair");
    IngestAndCheckAnswersMoved(&resolver, std::move(repeat),
                               /*expect_append=*/false);
  }
  EXPECT_EQ(resolver.cumulative().size(), ds_.size() + 2);
  EXPECT_EQ(resolver.total_duplicate_requests(), 0u);
}

TEST_F(StreamingResolverTest, EdgeCases) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::StreamingResolver resolver(DefaultStreamingOptions(), req);

  // Certifying before any data is an error, not a crash.
  EXPECT_FALSE(resolver.Certify().ok());

  // Empty shards are no-ops that still produce reports; all index-keyed
  // state trivially survives, which pure_append reflects.
  const core::EpochReport& empty = resolver.Ingest(data::Shard{});
  EXPECT_EQ(empty.pairs_total, 0u);
  EXPECT_EQ(empty.num_subsets, 0u);
  EXPECT_TRUE(empty.pure_append);

  // A shard smaller than one subset still forms a valid partition.
  data::Shard tiny;
  tiny.epoch = 1;
  for (uint32_t i = 0; i < 5; ++i) {
    tiny.pairs.push_back({i, i + 100, 0.1 * static_cast<double>(i + 1),
                          i >= 3});
  }
  const core::EpochReport& report = resolver.Ingest(std::move(tiny));
  EXPECT_EQ(report.pairs_total, 5u);
  EXPECT_EQ(report.num_subsets, 1u);
  EXPECT_EQ(resolver.provisional_labels().size(), 5u);
  EXPECT_EQ(resolver.landed().size(), 5u);

  // An empty shard after a real one lands nothing.
  EXPECT_TRUE(resolver.Ingest(data::Shard{}).pure_append);
  EXPECT_TRUE(resolver.landed().empty());
  EXPECT_EQ(resolver.cumulative().size(), 5u);
}

}  // namespace
}  // namespace humo
