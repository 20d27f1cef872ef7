#include "core/baseline_optimizer.h"

#include <gtest/gtest.h>

#include "core/solution.h"
#include "data/logistic_generator.h"
#include "eval/evaluation.h"

namespace humo::core {
namespace {

data::Workload MonotoneWorkload(size_t n = 40000, double tau = 14.0,
                                uint64_t seed = 1) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = n;
  o.pairs_per_subset = 200;
  o.tau = tau;
  o.sigma = 0.05;
  o.seed = seed;
  return data::GenerateLogisticWorkload(o);
}

TEST(BaselineOptimizerTest, MeetsQualityOnMonotoneWorkload) {
  const data::Workload w = MonotoneWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  BaselineOptimizer base;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = base.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.9);
  EXPECT_GE(q.recall, 0.9);
}

TEST(BaselineOptimizerTest, CostGrowsWithRequirement) {
  const data::Workload w = MonotoneWorkload();
  SubsetPartition p(&w, 200);
  BaselineOptimizer base;
  auto cost_at = [&](double level) {
    Oracle oracle(&w);
    QualityRequirement req{level, level, 0.9};
    auto sol = base.Optimize(p, req, &oracle);
    EXPECT_TRUE(sol.ok());
    const auto result = ApplySolution(p, *sol, &oracle);
    return result.human_cost;
  };
  EXPECT_LE(cost_at(0.75), cost_at(0.95));
}

TEST(BaselineOptimizerTest, DeterministicNoRandomness) {
  const data::Workload w = MonotoneWorkload();
  SubsetPartition p(&w, 200);
  BaselineOptimizer base;
  QualityRequirement req{0.85, 0.85, 0.9};
  Oracle o1(&w), o2(&w);
  auto s1 = base.Optimize(p, req, &o1);
  auto s2 = base.Optimize(p, req, &o2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->h_lo, s2->h_lo);
  EXPECT_EQ(s1->h_hi, s2->h_hi);
}

TEST(BaselineOptimizerTest, SolutionWithinBounds) {
  const data::Workload w = MonotoneWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  BaselineOptimizer base;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = base.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->h_lo, sol->h_hi);
  EXPECT_LT(sol->h_hi, p.num_subsets());
}

TEST(BaselineOptimizerTest, OracleCostMatchesDhSize) {
  // BASE labels exactly the subsets it absorbed into DH.
  const data::Workload w = MonotoneWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  BaselineOptimizer base;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = base.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(oracle.cost(), p.PairsInRange(sol->h_lo, sol->h_hi));
}

TEST(BaselineOptimizerTest, EasierWorkloadNeedsLessHumanWork) {
  const data::Workload easy = MonotoneWorkload(40000, 18.0, 2);
  const data::Workload hard = MonotoneWorkload(40000, 8.0, 2);
  QualityRequirement req{0.9, 0.9, 0.9};
  BaselineOptimizer base;
  auto cost_of = [&](const data::Workload& w) {
    SubsetPartition p(&w, 200);
    Oracle oracle(&w);
    auto sol = base.Optimize(p, req, &oracle);
    EXPECT_TRUE(sol.ok());
    return ApplySolution(p, *sol, &oracle).human_cost_fraction;
  };
  EXPECT_LT(cost_of(easy), cost_of(hard));
}

TEST(BaselineOptimizerTest, TrivialRequirementStaysCheap) {
  const data::Workload w = MonotoneWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  BaselineOptimizer base;
  QualityRequirement req{0.05, 0.05, 0.9};
  auto sol = base.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  // Nearly nothing should be needed beyond the seed subsets.
  EXPECT_LT(ApplySolution(p, *sol, &oracle).human_cost_fraction, 0.2);
}

TEST(BaselineOptimizerTest, RejectsBadInputs) {
  const data::Workload w = MonotoneWorkload(2000);
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.9, 0.9, 0.9};
  BaselineOptimizer base;
  EXPECT_FALSE(base.Optimize(p, req, nullptr).ok());
  const data::Workload empty;
  SubsetPartition pe(&empty, 200);
  Oracle oracle(&empty);
  EXPECT_FALSE(base.Optimize(pe, req, &oracle).ok());
}

TEST(BaselineOptimizerTest, ExtremeRequirementConsumesWholeWorkload) {
  // alpha = beta = 1.0 cannot be certified from windows unless the
  // workload is perfectly separated, so DH should grow very large.
  data::LogisticGeneratorOptions o;
  o.num_pairs = 10000;
  o.pairs_per_subset = 100;
  o.tau = 10.0;
  o.sigma = 0.1;
  const data::Workload w = data::GenerateLogisticWorkload(o);
  SubsetPartition p(&w, 100);
  Oracle oracle(&w);
  BaselineOptimizer base;
  QualityRequirement req{1.0, 1.0, 0.9};
  auto sol = base.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.99);
  EXPECT_GE(q.recall, 0.99);
}

}  // namespace
}  // namespace humo::core
