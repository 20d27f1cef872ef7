#include "core/hybrid_optimizer.h"

#include <gtest/gtest.h>

#include "core/partial_sampling_optimizer.h"
#include "core/solution.h"
#include "data/logistic_generator.h"
#include "data/pair_simulator.h"
#include "eval/evaluation.h"

namespace humo::core {
namespace {

data::Workload MakeWorkload(double tau = 14.0, double sigma = 0.05,
                            uint64_t seed = 1, size_t n = 40000) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = n;
  o.pairs_per_subset = 200;
  o.tau = tau;
  o.sigma = sigma;
  o.seed = seed;
  return data::GenerateLogisticWorkload(o);
}

TEST(HybridOptimizerTest, MeetsQualityOnSmoothWorkload) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  HybridOptimizer opt;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = opt.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.9);
  EXPECT_GE(q.recall, 0.9);
}

TEST(HybridOptimizerTest, NeverExceedsSamplingSolutionRange) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.9, 0.9, 0.9};
  // Run SAMP standalone with the same seed to learn S0's range.
  PartialSamplingOptions po;
  po.seed = 5;
  Oracle o_samp(&w);
  auto s0 = PartialSamplingOptimizer(po).OptimizeDetailed(p, req, &o_samp);
  ASSERT_TRUE(s0.ok());
  // HYBR with the same sampling seed starts from the same S0.
  HybridOptions ho;
  ho.sampling = po;
  Oracle o_hybr(&w);
  auto hybr = HybridOptimizer(ho).Optimize(p, req, &o_hybr);
  ASSERT_TRUE(hybr.ok());
  EXPECT_GE(hybr->h_lo, s0->solution.h_lo);
  EXPECT_LE(hybr->h_hi, s0->solution.h_hi);
}

TEST(HybridOptimizerTest, CostAtMostSamplingCost) {
  // §VII: the hybrid solution is at least as good as S0 — its DH is a
  // subrange, so the human cost cannot exceed SAMP's for the same seed.
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.9, 0.9, 0.9};
  PartialSamplingOptions po;
  po.seed = 9;

  Oracle o_samp(&w);
  auto samp_sol = PartialSamplingOptimizer(po).Optimize(p, req, &o_samp);
  ASSERT_TRUE(samp_sol.ok());
  const auto samp_result = ApplySolution(p, *samp_sol, &o_samp);

  HybridOptions ho;
  ho.sampling = po;
  Oracle o_hybr(&w);
  auto hybr_sol = HybridOptimizer(ho).Optimize(p, req, &o_hybr);
  ASSERT_TRUE(hybr_sol.ok());
  const auto hybr_result = ApplySolution(p, *hybr_sol, &o_hybr);

  EXPECT_LE(hybr_result.human_cost, samp_result.human_cost);
}

TEST(HybridOptimizerTest, SucceedsAcrossSeeds) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.85, 0.85, 0.9};
  size_t successes = 0;
  const size_t trials = 10;
  for (size_t t = 0; t < trials; ++t) {
    Oracle oracle(&w);
    HybridOptions o;
    o.sampling.seed = 3000 + t;
    auto sol = HybridOptimizer(o).Optimize(p, req, &oracle);
    ASSERT_TRUE(sol.ok());
    const auto result = ApplySolution(p, *sol, &oracle);
    const auto q = eval::QualityOf(w, result.labels);
    if (q.precision >= req.alpha && q.recall >= req.beta) ++successes;
  }
  EXPECT_GE(successes, 8u);
}

TEST(HybridOptimizerTest, WorksOnSimulatedAbWorkload) {
  const data::Workload w = data::SimulatePairs(data::AbConfigSmall(3, 60000));
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  HybridOptimizer opt;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = opt.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.88);
  EXPECT_GE(q.recall, 0.88);
}

TEST(HybridOptimizerTest, RejectsBadInputs) {
  const data::Workload w = MakeWorkload(14.0, 0.05, 1, 2000);
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.9, 0.9, 0.9};
  HybridOptimizer opt;
  EXPECT_FALSE(opt.Optimize(p, req, nullptr).ok());
}

TEST(HybridOptimizerTest, SolutionBoundsValid) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  HybridOptimizer opt;
  QualityRequirement req{0.8, 0.8, 0.9};
  auto sol = opt.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->h_lo, sol->h_hi);
  EXPECT_LT(sol->h_hi, p.num_subsets());
}

}  // namespace
}  // namespace humo::core
