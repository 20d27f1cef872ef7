#include <gtest/gtest.h>

#include "core/baseline_optimizer.h"
#include "core/hybrid_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "core/solution.h"
#include "data/logistic_generator.h"
#include "eval/evaluation.h"
#include "eval/experiment.h"

namespace humo {
namespace {

/// Statistical verification of the paper's confidence semantics: across
/// repeated randomized runs, the fraction of runs meeting the quality
/// requirement must be at least roughly theta.
class QualityGuaranteeTest : public ::testing::Test {
 protected:
  static data::Workload workload_;
  static void SetUpTestSuite() {
    data::LogisticGeneratorOptions o;
    o.num_pairs = 30000;
    o.pairs_per_subset = 200;
    o.tau = 12.0;
    o.sigma = 0.08;
    o.seed = 5;
    workload_ = data::GenerateLogisticWorkload(o);
  }
};

data::Workload QualityGuaranteeTest::workload_;

TEST_F(QualityGuaranteeTest, SampSuccessRateAtLeastTheta) {
  core::SubsetPartition p(&workload_, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto factory = [](uint64_t seed) -> eval::OptimizerFn {
    return [seed](const core::SubsetPartition& part,
                  const core::QualityRequirement& r, core::Oracle* o) {
      core::PartialSamplingOptions opts;
      opts.seed = seed;
      return core::PartialSamplingOptimizer(opts).Optimize(part, r, o);
    };
  };
  const auto summary = eval::RunExperiment(p, req, factory, 20, 7000);
  EXPECT_EQ(summary.failed_trials, 0u);
  // theta = 0.9; with 20 trials allow sampling slack down to 0.8.
  EXPECT_GE(summary.success_rate, 0.8);
}

TEST_F(QualityGuaranteeTest, HybrSuccessRateAtLeastTheta) {
  core::SubsetPartition p(&workload_, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto factory = [](uint64_t seed) -> eval::OptimizerFn {
    return [seed](const core::SubsetPartition& part,
                  const core::QualityRequirement& r, core::Oracle* o) {
      core::HybridOptions opts;
      opts.sampling.seed = seed;
      return core::HybridOptimizer(opts).Optimize(part, r, o);
    };
  };
  const auto summary = eval::RunExperiment(p, req, factory, 20, 8000);
  EXPECT_EQ(summary.failed_trials, 0u);
  EXPECT_GE(summary.success_rate, 0.8);
}

TEST_F(QualityGuaranteeTest, BaseAlwaysSucceedsUnderMonotonicity) {
  // Theorem 1: under monotonicity BASE's guarantee is deterministic.
  core::SubsetPartition p(&workload_, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::Oracle oracle(&workload_);
  auto sol = core::BaselineOptimizer().Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = core::ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(workload_, result.labels);
  EXPECT_GE(q.precision, req.alpha);
  EXPECT_GE(q.recall, req.beta);
}

TEST_F(QualityGuaranteeTest, AchievedQualityExceedsTargetOnAverage) {
  // Tables II-IV: achieved quality consistently overshoots the requirement.
  core::SubsetPartition p(&workload_, 200);
  const core::QualityRequirement req{0.8, 0.8, 0.9};
  auto factory = [](uint64_t seed) -> eval::OptimizerFn {
    return [seed](const core::SubsetPartition& part,
                  const core::QualityRequirement& r, core::Oracle* o) {
      core::PartialSamplingOptions opts;
      opts.seed = seed;
      return core::PartialSamplingOptimizer(opts).Optimize(part, r, o);
    };
  };
  const auto summary = eval::RunExperiment(p, req, factory, 10, 9000);
  EXPECT_GT(summary.mean_precision, 0.8);
  EXPECT_GT(summary.mean_recall, 0.8);
}

TEST_F(QualityGuaranteeTest, SampSurvivesNonMonotoneWorkload) {
  // Fig. 10's sigma = 0.5 regime: BASE's assumption breaks, SAMP holds.
  data::LogisticGeneratorOptions o;
  o.num_pairs = 30000;
  o.pairs_per_subset = 200;
  o.tau = 14.0;
  o.sigma = 0.5;
  o.seed = 99;
  const data::Workload rough = data::GenerateLogisticWorkload(o);
  core::SubsetPartition p(&rough, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  size_t success = 0;
  for (uint64_t t = 0; t < 10; ++t) {
    core::Oracle oracle(&rough);
    core::PartialSamplingOptions opts;
    opts.seed = 500 + t;
    opts.samples_per_subset = 40;
    auto sol = core::PartialSamplingOptimizer(opts).Optimize(p, req, &oracle);
    ASSERT_TRUE(sol.ok());
    const auto result = core::ApplySolution(p, *sol, &oracle);
    const auto q = eval::QualityOf(rough, result.labels);
    if (q.precision >= req.alpha && q.recall >= req.beta) ++success;
  }
  EXPECT_GE(success, 7u);
}

TEST_F(QualityGuaranteeTest, ImperfectOracleDegradesGracefully) {
  // §IV: with human error the achieved quality tracks the human's, not
  // collapsing to zero.
  core::SubsetPartition p(&workload_, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::Oracle noisy(&workload_, /*error_rate=*/0.02, /*seed=*/3);
  auto sol = core::BaselineOptimizer().Optimize(p, req, &noisy);
  ASSERT_TRUE(sol.ok());
  const auto result = core::ApplySolution(p, *sol, &noisy);
  const auto q = eval::QualityOf(workload_, result.labels);
  EXPECT_GE(q.precision, 0.85);
  EXPECT_GE(q.recall, 0.85);
}

}  // namespace
}  // namespace humo
