#include <gtest/gtest.h>

#include "core/baseline_optimizer.h"
#include "core/hybrid_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "core/solution.h"
#include "data/logistic_generator.h"
#include "eval/evaluation.h"

namespace humo {
namespace {

/// Parameterized property sweep: every optimizer, across a grid of workload
/// shapes and quality targets, must (a) return a structurally valid
/// solution, (b) meet the quality requirement on monotone workloads, and
/// (c) account human cost consistently.
///
/// The tag is stored inline rather than as a `const char*`: gtest prints the
/// parameter as a raw byte dump, and that dump is part of the test name that
/// ctest registers. A pointer would put a link-layout-dependent address into
/// the name; inline bytes keep it identical across builds.
struct PropertyCase {
  char optimizer[8];  // "base" | "samp" | "hybr"
  double tau;
  double level;  // alpha = beta
};

class OptimizerPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(OptimizerPropertyTest, ValidSolutionMeetsQuality) {
  const PropertyCase pc = GetParam();
  data::LogisticGeneratorOptions gen;
  gen.num_pairs = 20000;
  gen.pairs_per_subset = 200;
  gen.tau = pc.tau;
  gen.sigma = 0.05;
  gen.seed = 42;
  const data::Workload w = data::GenerateLogisticWorkload(gen);
  core::SubsetPartition p(&w, 200);
  core::Oracle oracle(&w);
  const core::QualityRequirement req{pc.level, pc.level, 0.9};

  Result<core::HumoSolution> sol = Status::Internal("unset");
  if (std::string(pc.optimizer) == "base") {
    sol = core::BaselineOptimizer().Optimize(p, req, &oracle);
  } else if (std::string(pc.optimizer) == "samp") {
    sol = core::PartialSamplingOptimizer().Optimize(p, req, &oracle);
  } else {
    sol = core::HybridOptimizer().Optimize(p, req, &oracle);
  }
  ASSERT_TRUE(sol.ok());

  // Property 1: structural validity.
  EXPECT_LE(sol->h_lo, sol->h_hi);
  EXPECT_LT(sol->h_hi, p.num_subsets());

  // Property 2: final labeling meets the requirement (tolerance for the
  // theta < 1 confidence semantics of the sampling optimizers).
  const auto result = core::ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  const double slack = std::string(pc.optimizer) == "base" ? 0.0 : 0.03;
  EXPECT_GE(q.precision, pc.level - slack)
      << pc.optimizer << " tau=" << pc.tau;
  EXPECT_GE(q.recall, pc.level - slack) << pc.optimizer << " tau=" << pc.tau;

  // Property 3: cost accounting. The oracle's distinct count equals the
  // reported cost and is at least |DH|.
  EXPECT_EQ(result.human_cost, oracle.cost());
  EXPECT_GE(result.human_cost, p.PairsInRange(sol->h_lo, sol->h_hi));
  EXPECT_LE(result.human_cost, w.size());

  // Property 4: labels are zone-consistent — everything below DH unmatch,
  // everything above DH match.
  const size_t dh_begin = p[sol->h_lo].begin;
  const size_t dh_end = p[sol->h_hi].end;
  for (size_t i = 0; i < dh_begin; ++i) ASSERT_EQ(result.labels[i], 0);
  for (size_t i = dh_end; i < w.size(); ++i) ASSERT_EQ(result.labels[i], 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizerPropertyTest,
    ::testing::Values(
        PropertyCase{"base", 8.0, 0.8}, PropertyCase{"base", 14.0, 0.9},
        PropertyCase{"base", 18.0, 0.95}, PropertyCase{"samp", 8.0, 0.8},
        PropertyCase{"samp", 14.0, 0.9}, PropertyCase{"samp", 18.0, 0.95},
        PropertyCase{"hybr", 8.0, 0.8}, PropertyCase{"hybr", 14.0, 0.9},
        PropertyCase{"hybr", 18.0, 0.95}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(info.param.optimizer) + "_tau" +
             std::to_string(static_cast<int>(info.param.tau)) + "_q" +
             std::to_string(static_cast<int>(info.param.level * 100));
    });

/// DH monotonicity in the quality requirement: a strictly stronger
/// requirement never yields a strictly smaller human zone for BASE
/// (deterministic optimizer, same workload).
TEST(OptimizerMonotonicityTest, BaseDhGrowsWithRequirement) {
  data::LogisticGeneratorOptions gen;
  gen.num_pairs = 20000;
  gen.pairs_per_subset = 200;
  gen.tau = 12.0;
  gen.sigma = 0.05;
  const data::Workload w = data::GenerateLogisticWorkload(gen);
  core::SubsetPartition p(&w, 200);
  size_t prev_dh = 0;
  for (double level : {0.7, 0.8, 0.9, 0.95}) {
    core::Oracle oracle(&w);
    const core::QualityRequirement req{level, level, 0.9};
    auto sol = core::BaselineOptimizer().Optimize(p, req, &oracle);
    ASSERT_TRUE(sol.ok());
    const size_t dh = p.PairsInRange(sol->h_lo, sol->h_hi);
    EXPECT_GE(dh + 400, prev_dh) << "level " << level;  // one-subset slack
    prev_dh = dh;
  }
}

/// Oracle determinism: running the same optimizer twice on fresh oracles
/// with the same seed gives identical solutions and costs.
TEST(OptimizerDeterminismTest, SampDeterministicPerSeed) {
  data::LogisticGeneratorOptions gen;
  gen.num_pairs = 20000;
  gen.pairs_per_subset = 200;
  const data::Workload w = data::GenerateLogisticWorkload(gen);
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.85, 0.85, 0.9};
  core::PartialSamplingOptions opts;
  opts.seed = 777;
  core::Oracle o1(&w), o2(&w);
  auto s1 = core::PartialSamplingOptimizer(opts).Optimize(p, req, &o1);
  auto s2 = core::PartialSamplingOptimizer(opts).Optimize(p, req, &o2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->h_lo, s2->h_lo);
  EXPECT_EQ(s1->h_hi, s2->h_hi);
  EXPECT_EQ(o1.cost(), o2.cost());
}

}  // namespace
}  // namespace humo
