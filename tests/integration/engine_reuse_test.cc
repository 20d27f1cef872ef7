#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/estimation_engine.h"
#include "core/hybrid_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "core/solution.h"
#include "data/logistic_generator.h"
#include "data/pair_simulator.h"
#include "eval/evaluation.h"

namespace humo {
namespace {

data::Workload MakeWorkload(uint64_t seed = 1, size_t n = 40000) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = n;
  o.pairs_per_subset = 200;
  o.tau = 14.0;
  o.sigma = 0.05;
  o.seed = seed;
  return data::GenerateLogisticWorkload(o);
}

/// The acceptance property of the shared estimation engine: a HYBR run
/// layered on a SAMP run over one context re-asks the oracle for NOTHING —
/// every subset SAMP enumerated is served from the context's strata, and
/// the pairs HYBR newly labels are each inspected exactly once.
TEST(EngineReuseTest, HybridAfterSamplingIssuesZeroDuplicateInspections) {
  const data::Workload w = MakeWorkload();
  core::SubsetPartition p(&w, 200);
  core::Oracle oracle(&w);
  core::EstimationContext ctx(&p, &oracle);
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  core::PartialSamplingOptions po;
  po.seed = 5;
  auto s0 = core::PartialSamplingOptimizer(po).OptimizeDetailed(&ctx, req);
  ASSERT_TRUE(s0.ok());
  const size_t samp_cost = oracle.cost();
  ASSERT_GT(samp_cost, 0u);
  ASSERT_EQ(oracle.duplicate_requests(), 0u) << "SAMP re-asked a pair";
  const core::CacheStats samp_stats = ctx.stats();

  core::HybridOptions ho;
  ho.sampling = po;
  auto hybr = core::HybridOptimizer(ho).Optimize(&ctx, req);
  ASSERT_TRUE(hybr.ok());

  // Zero duplicate oracle inspections across the whole chained run: every
  // request that reached the oracle was for a pair it had never answered,
  // and the engine's own inspection counter agrees with the oracle's
  // distinct-pair cost — nothing was inspected twice anywhere.
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
  EXPECT_EQ(oracle.total_requests(), oracle.cost());
  const core::CacheStats after = ctx.stats();
  EXPECT_EQ(after.oracle_pairs_inspected, oracle.cost());
  (void)samp_stats;

  // And the reused S0 bounds still bracket the hybrid solution.
  EXPECT_GE(hybr->h_lo, s0->solution.h_lo);
  EXPECT_LE(hybr->h_hi, s0->solution.h_hi);

  // A second HYBR run over the same context is answered entirely from the
  // cache: not one additional pair is inspected.
  const size_t cost_before_rerun = oracle.cost();
  auto again = core::HybridOptimizer(ho).Optimize(&ctx, req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(oracle.cost(), cost_before_rerun);
  EXPECT_EQ(oracle.cost(), ctx.stats().oracle_pairs_inspected);
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
  EXPECT_GT(ctx.stats().full_label_hits, after.full_label_hits);
  EXPECT_EQ(again->h_lo, hybr->h_lo);
  EXPECT_EQ(again->h_hi, hybr->h_hi);
}

/// Chaining through a shared context is strictly cheaper than fresh runs.
TEST(EngineReuseTest, SharedContextCostsLessThanFreshRuns) {
  const data::Workload w = MakeWorkload(3);
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::PartialSamplingOptions po;
  po.seed = 7;
  core::HybridOptions ho;
  ho.sampling = po;

  // Fresh oracles, no sharing.
  size_t fresh_cost = 0;
  {
    core::Oracle o1(&w);
    ASSERT_TRUE(core::PartialSamplingOptimizer(po).Optimize(p, req, &o1).ok());
    core::Oracle o2(&w);
    ASSERT_TRUE(core::HybridOptimizer(ho).Optimize(p, req, &o2).ok());
    fresh_cost = o1.cost() + o2.cost();
  }

  // Same two runs over one context and one oracle.
  core::Oracle shared(&w);
  core::EstimationContext ctx(&p, &shared);
  ASSERT_TRUE(core::PartialSamplingOptimizer(po).Optimize(&ctx, req).ok());
  ASSERT_TRUE(core::HybridOptimizer(ho).Optimize(&ctx, req).ok());

  EXPECT_LT(shared.cost(), fresh_cost);
}

/// The legacy three-argument entry points and the context entry points are
/// the same algorithm: a fresh context reproduces the historical behavior
/// exactly.
TEST(EngineReuseTest, FreshContextMatchesLegacyEntryPoint) {
  const data::Workload w = MakeWorkload(5);
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.88, 0.88, 0.9};
  core::PartialSamplingOptions po;
  po.seed = 21;

  core::Oracle o1(&w);
  auto legacy = core::PartialSamplingOptimizer(po).Optimize(p, req, &o1);
  core::Oracle o2(&w);
  core::EstimationContext ctx(&p, &o2);
  auto engine = core::PartialSamplingOptimizer(po).Optimize(&ctx, req);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(legacy->h_lo, engine->h_lo);
  EXPECT_EQ(legacy->h_hi, engine->h_hi);
  EXPECT_EQ(o1.cost(), o2.cost());
}

/// Bit-identical results at any thread count: solutions, human cost, and
/// quality from a 1-thread run equal those from an N-thread run.
TEST(EngineReuseTest, ThreadCountDoesNotChangeResults) {
  const data::Workload base_workload = MakeWorkload(9);
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  struct Outcome {
    size_t h_lo, h_hi, cost;
    double precision, recall, f1;
    std::vector<double> sims;
  };
  auto run = [&](size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    // Regenerate the workload under this thread count too: simulation is
    // part of the parallelized surface.
    const data::Workload w = data::SimulatePairs(data::DsConfigSmall(2, 20000));
    core::SubsetPartition p(&w, 200);
    core::Oracle oracle(&w);
    core::EstimationContext ctx(&p, &oracle);
    core::PartialSamplingOptions po;
    po.seed = 5;
    auto samp = core::PartialSamplingOptimizer(po).Optimize(&ctx, req);
    EXPECT_TRUE(samp.ok());
    core::HybridOptions ho;
    ho.sampling = po;
    auto hybr = core::HybridOptimizer(ho).Optimize(&ctx, req);
    EXPECT_TRUE(hybr.ok());
    const auto result = core::ApplySolution(p, *hybr, &oracle);
    const auto q = eval::QualityOf(w, result.labels);
    Outcome out;
    out.h_lo = hybr->h_lo;
    out.h_hi = hybr->h_hi;
    out.cost = result.human_cost;
    out.precision = q.precision;
    out.recall = q.recall;
    out.f1 = q.f1;
    out.sims.reserve(64);
    for (size_t i = 0; i < w.size(); i += w.size() / 64) {
      out.sims.push_back(w[i].similarity);
    }
    return out;
  };

  const Outcome serial = run(1);
  const Outcome parallel = run(4);
  ThreadPool::SetGlobalThreads(0);  // restore the environment default

  EXPECT_EQ(serial.h_lo, parallel.h_lo);
  EXPECT_EQ(serial.h_hi, parallel.h_hi);
  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.precision, parallel.precision);  // bitwise, not NEAR
  EXPECT_EQ(serial.recall, parallel.recall);
  EXPECT_EQ(serial.f1, parallel.f1);
  ASSERT_EQ(serial.sims.size(), parallel.sims.size());
  for (size_t i = 0; i < serial.sims.size(); ++i) {
    EXPECT_EQ(serial.sims[i], parallel.sims[i]) << "similarity " << i;
  }
}

}  // namespace
}  // namespace humo
