#include <gtest/gtest.h>

#include <limits>

#include "common/thread_pool.h"
#include "core/estimation_engine.h"
#include "core/hybrid_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "core/solution.h"
#include "data/logistic_generator.h"
#include "eval/evaluation.h"

namespace humo {
namespace {

/// gp_warm_lml_slack that rejects every warm-start candidate, so each GP
/// refit re-selects on the full hyperparameter grid: the reference path the
/// incremental (default) runs must reproduce.
constexpr double kGridEveryRound = -std::numeric_limits<double>::infinity();
const double kDefaultSlack = core::PartialSamplingOptions().gp_warm_lml_slack;

data::Workload MakeWorkload(uint64_t seed = 1, size_t n = 40000) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = n;
  o.pairs_per_subset = 200;
  o.tau = 14.0;
  o.sigma = 0.05;
  o.seed = seed;
  return data::GenerateLogisticWorkload(o);
}

struct RunOutcome {
  size_t h_lo, h_hi, cost;
  core::CacheStats stats;
};

RunOutcome RunSamp(const data::Workload& w, uint64_t seed,
                   double warm_slack = kDefaultSlack) {
  core::SubsetPartition p(&w, 200);
  core::Oracle oracle(&w);
  core::EstimationContext ctx(&p, &oracle);
  core::PartialSamplingOptions po;
  po.seed = seed;
  po.gp_warm_lml_slack = warm_slack;
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = core::PartialSamplingOptimizer(po).Optimize(&ctx, req);
  EXPECT_TRUE(sol.ok());
  return {sol->h_lo, sol->h_hi, oracle.cost(), ctx.stats()};
}

RunOutcome RunHybr(const data::Workload& w, uint64_t seed,
                   double warm_slack = kDefaultSlack) {
  core::SubsetPartition p(&w, 200);
  core::Oracle oracle(&w);
  core::EstimationContext ctx(&p, &oracle);
  core::HybridOptions ho;
  ho.sampling.seed = seed;
  ho.sampling.gp_warm_lml_slack = warm_slack;
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = core::HybridOptimizer(ho).Optimize(&ctx, req);
  EXPECT_TRUE(sol.ok());
  return {sol->h_lo, sol->h_hi, oracle.cost(), ctx.stats()};
}

/// The acceptance property of the incremental refit path: SAMP produces the
/// SAME solution, at the same human cost, whether GP re-estimation re-runs
/// the full hyperparameter grid every round (gp_warm_lml_slack = -infinity)
/// or warm-starts rank-k appends on the previous winner (default).
TEST(GpIncrementalTest, SampSolutionsIdenticalWithAndWithoutIncremental) {
  const data::Workload w = MakeWorkload(1);
  for (uint64_t seed : {5u, 17u, 42u}) {
    const RunOutcome grid_out = RunSamp(w, seed, kGridEveryRound);
    const RunOutcome warm_out = RunSamp(w, seed);
    EXPECT_EQ(grid_out.h_lo, warm_out.h_lo) << "seed " << seed;
    EXPECT_EQ(grid_out.h_hi, warm_out.h_hi) << "seed " << seed;
    EXPECT_EQ(grid_out.cost, warm_out.cost) << "seed " << seed;
    // Counter sanity: the reference path never warm-starts; the incremental
    // path replaced grid re-runs with appends.
    EXPECT_EQ(grid_out.stats.gp_warm_starts, 0u);
    EXPECT_GT(grid_out.stats.gp_grid_fits, 0u);
    EXPECT_GT(warm_out.stats.gp_warm_starts, 0u) << "seed " << seed;
    EXPECT_LT(warm_out.stats.gp_grid_fits, grid_out.stats.gp_grid_fits)
        << "seed " << seed;
  }
}

TEST(GpIncrementalTest, HybrSolutionsIdenticalWithAndWithoutIncremental) {
  const data::Workload w = MakeWorkload(3);
  const RunOutcome grid_out = RunHybr(w, 7, kGridEveryRound);
  const RunOutcome warm_out = RunHybr(w, 7);
  EXPECT_EQ(grid_out.h_lo, warm_out.h_lo);
  EXPECT_EQ(grid_out.h_hi, warm_out.h_hi);
  EXPECT_EQ(grid_out.cost, warm_out.cost);
  // Non-vacuous: the two runs took different GP paths to the same answer.
  EXPECT_EQ(grid_out.stats.gp_warm_starts, 0u);
  EXPECT_GT(warm_out.stats.gp_warm_starts, 0u);
  EXPECT_LT(warm_out.stats.gp_grid_fits, grid_out.stats.gp_grid_fits);
}

/// Incremental refits stay bit-identical across thread counts, like every
/// other parallel surface in the library.
TEST(GpIncrementalTest, IncrementalPathThreadCountInvariant) {
  const data::Workload w = MakeWorkload(9, 30000);
  auto run = [&](size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    return RunSamp(w, 11);
  };
  const RunOutcome serial = run(1);
  const RunOutcome parallel = run(4);
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(serial.h_lo, parallel.h_lo);
  EXPECT_EQ(serial.h_hi, parallel.h_hi);
  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.stats.gp_warm_starts, parallel.stats.gp_warm_starts);
  EXPECT_EQ(serial.stats.gp_grid_fits, parallel.stats.gp_grid_fits);
  EXPECT_EQ(serial.stats.gp_rows_appended, parallel.stats.gp_rows_appended);
}

/// The incremental path must not cost the human anything: warm-started runs
/// still meet the quality targets (the solution is identical, so this is
/// belt-and-braces on top of the identity tests above).
TEST(GpIncrementalTest, IncrementalRunStillMeetsQuality) {
  const data::Workload w = MakeWorkload(5);
  core::SubsetPartition p(&w, 200);
  core::Oracle oracle(&w);
  core::EstimationContext ctx(&p, &oracle);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = core::PartialSamplingOptimizer().Optimize(&ctx, req);
  ASSERT_TRUE(sol.ok());
  const auto result = core::ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.9);
  EXPECT_GE(q.recall, 0.9);
}

}  // namespace
}  // namespace humo
