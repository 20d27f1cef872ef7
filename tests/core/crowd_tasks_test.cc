#include "core/crowd_tasks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/solution.h"
#include "data/entity_graph_generator.h"
#include "eval/evaluation.h"

namespace humo::core {
namespace {

/// Dedup-style workload (both sides of every pair drawn from one table)
/// with hand-picked record ids, distinct similarities so the sorted pair
/// order is exactly the construction order.
data::Workload MakeRecordWorkload(
    const std::vector<std::pair<uint32_t, uint32_t>>& record_pairs) {
  std::vector<data::InstancePair> pairs;
  double sim = 0.01;
  for (const auto& [l, r] : record_pairs) {
    data::InstancePair p;
    p.left_id = l;
    p.right_id = r;
    p.similarity = sim;
    sim += 0.01;
    pairs.push_back(p);
  }
  return data::Workload(std::move(pairs));
}

CrowdTaskOptions DedupOptions(size_t capacity) {
  CrowdTaskOptions o;
  o.task_capacity = capacity;
  o.left_source = 0;
  o.right_source = 0;  // one table: shared record ids must connect
  return o;
}

TEST(PackCrowdTasksTest, ExactCeilCountAndCapacity) {
  // Pairs 0..6 over disjoint records.
  std::vector<std::pair<uint32_t, uint32_t>> rp;
  for (uint32_t i = 0; i < 7; ++i) rp.push_back({100 + 2 * i, 101 + 2 * i});
  const data::Workload w = MakeRecordWorkload(rp);
  std::vector<size_t> indices = {0, 1, 2, 3, 4, 5, 6};
  const auto tasks = PackCrowdTasks(w, indices, DedupOptions(3));
  ASSERT_EQ(tasks.size(), 3u);  // ceil(7 / 3)
  EXPECT_EQ(tasks[0].pair_indices.size(), 3u);
  EXPECT_EQ(tasks[1].pair_indices.size(), 3u);
  EXPECT_EQ(tasks[2].pair_indices.size(), 1u);
}

TEST(PackCrowdTasksTest, DeterministicUnderInputOrderAndDuplicates) {
  std::vector<std::pair<uint32_t, uint32_t>> rp;
  for (uint32_t i = 0; i < 10; ++i) rp.push_back({2 * i, 2 * i + 1});
  const data::Workload w = MakeRecordWorkload(rp);
  const auto a =
      PackCrowdTasks(w, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, DedupOptions(4));
  const auto b =
      PackCrowdTasks(w, {9, 7, 5, 3, 1, 8, 6, 4, 2, 0, 0, 5}, DedupOptions(4));
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].pair_indices, b[t].pair_indices) << "task " << t;
  }
}

TEST(PackCrowdTasksTest, CorrelatedPairsShareATask) {
  // Pairs 0..2 form one record chain (1-2, 2-3, 3-4); pairs 3..4 another
  // (10-11, 11-12); pairs 5..8 are disjoint fillers interleaved AFTER.
  const data::Workload w = MakeRecordWorkload({{1, 2},
                                               {2, 3},
                                               {3, 4},
                                               {10, 11},
                                               {11, 12},
                                               {20, 21},
                                               {30, 31},
                                               {40, 41},
                                               {50, 51}});
  const auto tasks =
      PackCrowdTasks(w, {5, 0, 6, 3, 1, 7, 4, 2, 8}, DedupOptions(5));
  ASSERT_EQ(tasks.size(), 2u);  // ceil(9 / 5)
  // Components ordered by smallest member: {0,1,2} then {3,4} then fillers —
  // both chains land whole in the first task.
  EXPECT_EQ(tasks[0].pair_indices,
            (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(tasks[1].pair_indices, (std::vector<size_t>{5, 6, 7, 8}));
}

TEST(PackCrowdTasksTest, EmptyInputAndCapacityClamp) {
  const data::Workload w = MakeRecordWorkload({{1, 2}});
  EXPECT_TRUE(PackCrowdTasks(w, {}, DedupOptions(3)).empty());
  // Capacity 0 clamps to 1: one pair per task.
  const auto tasks = PackCrowdTasks(w, {0}, DedupOptions(0));
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].pair_indices.size(), 1u);
}

TEST(TransitiveInferenceTest, TransitivityAndAntiTransitivity) {
  TransitiveInference inf;
  EXPECT_EQ(inf.Infer(1, 1), TransitiveInference::kMatch);  // reflexivity
  EXPECT_EQ(inf.Infer(1, 2), TransitiveInference::kUnknown);
  inf.Observe(1, 2, true);
  inf.Observe(2, 3, true);
  EXPECT_EQ(inf.Infer(1, 3), TransitiveInference::kMatch);  // a=b, b=c => a=c
  inf.Observe(3, 4, false);
  EXPECT_EQ(inf.Infer(1, 4), TransitiveInference::kNonMatch);  // a=c, c!=d
  EXPECT_EQ(inf.Infer(4, 1), TransitiveInference::kNonMatch);  // symmetric
  EXPECT_EQ(inf.Infer(4, 5), TransitiveInference::kUnknown);
  EXPECT_EQ(inf.num_records(), 4u);
  EXPECT_EQ(inf.merges(), 2u);
  EXPECT_EQ(inf.negative_edges(), 1u);
  EXPECT_EQ(inf.conflicts_dropped(), 0u);
}

TEST(TransitiveInferenceTest, FirstPurchaseWinsOnConflict) {
  TransitiveInference inf;
  inf.Observe(1, 2, true);
  inf.Observe(2, 3, true);
  // Contradicts the closure 1=3: dropped, closure unchanged.
  inf.Observe(1, 3, false);
  EXPECT_EQ(inf.conflicts_dropped(), 1u);
  EXPECT_EQ(inf.Infer(1, 3), TransitiveInference::kMatch);
  // And the mirror case: a negative edge blocks a later merge.
  inf.Observe(10, 11, false);
  inf.Observe(10, 11, true);
  EXPECT_EQ(inf.conflicts_dropped(), 2u);
  EXPECT_EQ(inf.Infer(10, 11), TransitiveInference::kNonMatch);
}

TEST(TransitiveInferenceTest, NegativeEdgesSurviveAndCollapseAcrossMerges) {
  TransitiveInference inf;
  inf.Observe(1, 5, false);
  inf.Observe(2, 5, false);
  EXPECT_EQ(inf.negative_edges(), 2u);
  // Merging {1} and {2} collapses their two edges to node 5 into one.
  inf.Observe(1, 2, true);
  EXPECT_EQ(inf.negative_edges(), 1u);
  EXPECT_EQ(inf.Infer(2, 5), TransitiveInference::kNonMatch);
  EXPECT_EQ(inf.Infer(1, 5), TransitiveInference::kNonMatch);
}

data::EntityGraph SmallEntityGraph(uint64_t seed = 20260808) {
  data::EntityGraphConfig cfg;
  cfg.num_entities = 400;
  cfg.seed = seed;
  return data::GenerateEntityGraph(cfg);
}

TEST(CrowdTaskBrokerTest, InferenceIsSoundUnderPerfectCrowd) {
  // Transitively consistent truth + perfect crowd: every broker answer —
  // purchased, inferred by transitivity, or inferred by anti-transitivity —
  // must equal the ground truth. In particular anti-transitivity never
  // prunes a true match, and the closure never contradicts a verdict.
  const data::EntityGraph g = SmallEntityGraph();
  const data::Workload& w = g.workload;
  CrowdOptions co;
  co.worker_error_rate = 0.0;
  CrowdOracle crowd(&w, co);
  CrowdTaskBroker broker(&w, &crowd, DedupOptions(10));

  // Feed the whole workload in batches, the provider-contract shape.
  for (size_t begin = 0; begin < w.size(); begin += 512) {
    const size_t end = std::min(begin + 512, w.size());
    std::vector<size_t> batch;
    for (size_t i = begin; i < end; ++i) batch.push_back(i);
    const std::vector<char> answers = broker.Answer(batch);
    for (size_t t = 0; t < batch.size(); ++t) {
      ASSERT_EQ(answers[t] != 0, w.IsMatch(batch[t])) << "pair " << batch[t];
    }
  }
  const CrowdTaskStats& s = broker.stats();
  EXPECT_EQ(s.pairs_answered(), w.size());
  EXPECT_GT(s.pairs_inferred_match, 0u);
  EXPECT_GT(s.pairs_inferred_nonmatch, 0u);
  EXPECT_LT(s.pairs_purchased, w.size());
  EXPECT_EQ(broker.inference().conflicts_dropped(), 0u);
  // Task-denominated cost: strictly fewer tasks than purchased pairs, and
  // every task except possibly per-round tails holds several pairs.
  EXPECT_LT(s.tasks_posted, s.pairs_purchased);
}

TEST(CrowdTaskBrokerTest, InferenceNeverContradictsPurchasedVerdicts) {
  // Noisy crowd: verdicts can be wrong and mutually inconsistent. The
  // broker must still (a) serve every purchased pair its purchased verdict
  // and (b) keep repeat queries bit-stable. One worker per pair without a
  // pool makes a purchased verdict a pure function of the pair, so a
  // second crowd adjudicating each pair alone gives the purchased verdict.
  const data::EntityGraph g = SmallEntityGraph();
  const data::Workload& w = g.workload;
  CrowdOptions co;
  co.worker_error_rate = 0.35;
  co.workers_per_pair = 1;
  CrowdOracle crowd(&w, co);
  CrowdTaskBroker broker(&w, &crowd, DedupOptions(10));
  std::vector<size_t> purchased;
  Oracle oracle(&w);
  oracle.SetAnswerProvider([&](const std::vector<size_t>& indices) {
    return broker.Answer(indices, &purchased);
  });

  std::vector<char> first_answer;
  for (size_t begin = 0; begin < w.size(); begin += 256) {
    const size_t end = std::min(begin + 256, w.size());
    std::vector<size_t> batch;
    for (size_t i = begin; i < end; ++i) batch.push_back(i);
    const std::vector<char> answers = oracle.InspectBatch(batch);
    first_answer.insert(first_answer.end(), answers.begin(), answers.end());
  }
  // Noise on a transitively consistent truth must have produced conflicts —
  // otherwise this test exercises nothing.
  EXPECT_GT(broker.inference().conflicts_dropped(), 0u);
  // Every pair was bought once or inferred, never both.
  const CrowdTaskStats& s = broker.stats();
  EXPECT_EQ(purchased.size(), s.pairs_purchased);
  EXPECT_EQ(crowd.pairs_adjudicated(), s.pairs_purchased);
  EXPECT_EQ(purchased.size() + s.pairs_inferred(), w.size());
  std::vector<char> bought(w.size(), 0);
  for (const size_t i : purchased) {
    ASSERT_LT(i, w.size());
    EXPECT_EQ(bought[i], 0) << "pair " << i << " bought twice";
    bought[i] = 1;
  }
  // A purchased pair is served exactly its own verdict; only inferred
  // answers may differ from it.
  CrowdOracle alone(&w, co);
  size_t inferred_differ = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const bool verdict = alone.Adjudicate({i})[0] != 0;
    if (bought[i]) {
      EXPECT_EQ(first_answer[i] != 0, verdict) << "pair " << i;
    } else {
      inferred_differ += (first_answer[i] != 0) != verdict;
    }
  }
  // Some inferred answers overrule the pair's own noisy verdict — the
  // case the per-pair check above must tell apart from purchases.
  EXPECT_GT(inferred_differ, 0u);
  // Re-asking everything is free (no new tasks) and bit-identical.
  const CrowdTaskStats before = broker.stats();
  std::vector<size_t> all(w.size());
  for (size_t i = 0; i < w.size(); ++i) all[i] = i;
  EXPECT_EQ(oracle.InspectBatch(all), first_answer);
  EXPECT_EQ(broker.stats().tasks_posted, before.tasks_posted);
  EXPECT_EQ(broker.stats().pairs_purchased, before.pairs_purchased);
}

struct PipelineRun {
  std::vector<int> labels;
  size_t questions = 0;        // oracle.cost(): distinct pairs asked
  size_t total_requests = 0;
  size_t duplicate_requests = 0;
  double precision = 0.0;
  double recall = 0.0;
  CrowdTaskStats stats;
};

PipelineRun RunSampPipeline(const data::Workload& w, bool through_broker,
                            uint64_t seed = 1000) {
  const SubsetPartition partition(&w, 200);
  const QualityRequirement req{0.9, 0.9, 0.9};
  Oracle oracle(&w);
  CrowdOptions co;
  co.worker_error_rate = 0.0;
  CrowdOracle crowd(&w, co);
  CrowdTaskBroker broker(&w, &crowd, DedupOptions(10));
  if (through_broker) oracle.SetAnswerProvider(broker.Provider());

  PartialSamplingOptions opts;
  opts.seed = seed;
  auto sol = PartialSamplingOptimizer(opts).Optimize(partition, req, &oracle);
  EXPECT_TRUE(sol.ok());
  PipelineRun run;
  if (!sol.ok()) return run;
  const ResolutionResult res = ApplySolution(partition, *sol, &oracle);
  const eval::Quality q = eval::QualityOf(w, res.labels);
  run.labels = res.labels;
  run.questions = oracle.cost();
  run.total_requests = oracle.total_requests();
  run.duplicate_requests = oracle.duplicate_requests();
  run.precision = q.precision;
  run.recall = q.recall;
  run.stats = broker.stats();
  return run;
}

TEST(CrowdTaskBrokerTest, SampThroughBrokerIsBitIdenticalToInline) {
  // The AnswerProvider contract: routing changes who answers, never the
  // values. A perfect crowd on a transitively consistent truth answers
  // exactly what the inline oracle would, so the ENTIRE pipeline — labels,
  // guarantee, cost counters — replays bit for bit.
  const data::EntityGraph g = SmallEntityGraph();
  const PipelineRun inline_run = RunSampPipeline(g.workload, false);
  const PipelineRun broker_run = RunSampPipeline(g.workload, true);
  EXPECT_EQ(inline_run.labels, broker_run.labels);
  EXPECT_EQ(inline_run.questions, broker_run.questions);
  EXPECT_EQ(inline_run.total_requests, broker_run.total_requests);
  EXPECT_EQ(inline_run.duplicate_requests, broker_run.duplicate_requests);
  EXPECT_EQ(inline_run.precision, broker_run.precision);
  EXPECT_EQ(inline_run.recall, broker_run.recall);
  EXPECT_GE(broker_run.precision, 0.9);
  EXPECT_GE(broker_run.recall, 0.9);

  // The crowd-cost punchline, asserted (ISSUE acceptance): the same
  // guarantee is certified with task-denominated cost well under the
  // question count — packing plus inference, each alone visible here.
  const CrowdTaskStats& s = broker_run.stats;
  EXPECT_EQ(s.pairs_answered(), broker_run.questions);
  EXPECT_LE(s.tasks_posted, broker_run.questions);
  EXPECT_LT(static_cast<double>(s.tasks_posted),
            0.8 * static_cast<double>(broker_run.questions));
  EXPECT_GT(s.pairs_inferred(), 0u);
}

TEST(CrowdTaskBrokerTest, BitIdenticalAtAnyThreadCount) {
  const data::EntityGraph g = SmallEntityGraph();
  auto run = [&](size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    return RunSampPipeline(g.workload, true);
  };
  const PipelineRun serial = run(1);
  const PipelineRun parallel = run(4);
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.questions, parallel.questions);
  EXPECT_EQ(serial.stats.tasks_posted, parallel.stats.tasks_posted);
  EXPECT_EQ(serial.stats.pairs_purchased, parallel.stats.pairs_purchased);
  EXPECT_EQ(serial.stats.pairs_inferred_match,
            parallel.stats.pairs_inferred_match);
  EXPECT_EQ(serial.stats.pairs_inferred_nonmatch,
            parallel.stats.pairs_inferred_nonmatch);
  EXPECT_EQ(serial.stats.worker_answers, parallel.stats.worker_answers);
}

}  // namespace
}  // namespace humo::core
