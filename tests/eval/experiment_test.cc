#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "core/baseline_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "data/logistic_generator.h"

namespace humo::eval {
namespace {

data::Workload MakeWorkload() {
  data::LogisticGeneratorOptions o;
  o.num_pairs = 20000;
  o.pairs_per_subset = 200;
  o.tau = 14.0;
  o.sigma = 0.05;
  return data::GenerateLogisticWorkload(o);
}

TEST(ExperimentTest, RunTrialReportsQualityAndCost) {
  const data::Workload w = MakeWorkload();
  core::SubsetPartition p(&w, 200);
  core::Oracle oracle(&w);
  core::QualityRequirement req{0.85, 0.85, 0.9};
  OptimizerFn base = [](const core::SubsetPartition& part,
                        const core::QualityRequirement& r,
                        core::Oracle* o) {
    return core::BaselineOptimizer().Optimize(part, r, o);
  };
  const TrialResult tr = RunTrial(p, req, base, &oracle);
  EXPECT_FALSE(tr.failed_to_run);
  EXPECT_GT(tr.precision, 0.0);
  EXPECT_GT(tr.recall, 0.0);
  EXPECT_GT(tr.human_cost, 0u);
  EXPECT_GT(tr.human_cost_fraction, 0.0);
  EXPECT_TRUE(tr.success);
}

TEST(ExperimentTest, RunExperimentAggregates) {
  const data::Workload w = MakeWorkload();
  core::SubsetPartition p(&w, 200);
  core::QualityRequirement req{0.85, 0.85, 0.9};
  auto factory = [](uint64_t seed) -> OptimizerFn {
    return [seed](const core::SubsetPartition& part,
                  const core::QualityRequirement& r, core::Oracle* o) {
      core::PartialSamplingOptions opts;
      opts.seed = seed;
      return core::PartialSamplingOptimizer(opts).Optimize(part, r, o);
    };
  };
  const auto summary = RunExperiment(p, req, factory, 5, 100);
  EXPECT_EQ(summary.trials, 5u);
  EXPECT_EQ(summary.failed_trials, 0u);
  EXPECT_GT(summary.mean_precision, 0.8);
  EXPECT_GT(summary.mean_recall, 0.8);
  EXPECT_GT(summary.mean_cost_fraction, 0.0);
  EXPECT_LE(summary.success_rate, 1.0);
  EXPECT_GE(summary.success_rate, 0.0);
}

TEST(ExperimentTest, FailedOptimizerCounted) {
  const data::Workload w = MakeWorkload();
  core::SubsetPartition p(&w, 200);
  core::QualityRequirement req{0.85, 0.85, 0.9};
  auto failing_factory = [](uint64_t) -> OptimizerFn {
    return [](const core::SubsetPartition&, const core::QualityRequirement&,
              core::Oracle*) -> humo::Result<core::HumoSolution> {
      return humo::Status::Internal("synthetic failure");
    };
  };
  const auto summary = RunExperiment(p, req, failing_factory, 3, 1);
  EXPECT_EQ(summary.failed_trials, 3u);
  EXPECT_DOUBLE_EQ(summary.mean_precision, 0.0);
}

TEST(ExperimentTest, FailedTrialsCountAsMisses) {
  const data::Workload w = MakeWorkload();
  core::SubsetPartition p(&w, 200);
  core::QualityRequirement req{0.85, 0.85, 0.9};
  // Odd seeds fail to run; even seeds run BASE, which meets the requirement
  // on this workload.
  auto mixed_factory = [](uint64_t seed) -> OptimizerFn {
    return [seed](const core::SubsetPartition& part,
                  const core::QualityRequirement& r,
                  core::Oracle* o) -> humo::Result<core::HumoSolution> {
      if (seed % 2 == 1) return humo::Status::Internal("synthetic failure");
      return core::BaselineOptimizer().Optimize(part, r, o);
    };
  };
  const auto summary = RunExperiment(p, req, mixed_factory, 20, 0);
  EXPECT_EQ(summary.failed_trials, 10u);
  EXPECT_EQ(summary.successes, 10u);
  EXPECT_LE(summary.success_rate, 0.5);
  EXPECT_GT(summary.mean_precision, 0.85);
}

TEST(CoverageHoldsTest, BinomialThresholdsAtTheta90) {
  EXPECT_FALSE(CoverageHolds(12, 20, 0.9));
  EXPECT_TRUE(CoverageHolds(13, 20, 0.9));
  EXPECT_FALSE(CoverageHolds(16, 25, 0.9));
  EXPECT_TRUE(CoverageHolds(17, 25, 0.9));
  EXPECT_TRUE(CoverageHolds(20, 20, 0.9));
  // One run cannot reject theta = 0.9: P(X = 0) = 0.1.
  EXPECT_TRUE(CoverageHolds(0, 1, 0.9));
}

TEST(ExperimentTest, SeedsVaryAcrossTrials) {
  const data::Workload w = MakeWorkload();
  core::SubsetPartition p(&w, 200);
  core::QualityRequirement req{0.85, 0.85, 0.9};
  std::vector<uint64_t> seen;
  auto factory = [&seen](uint64_t seed) -> OptimizerFn {
    seen.push_back(seed);
    return [](const core::SubsetPartition& part,
              const core::QualityRequirement& r, core::Oracle* o) {
      return core::BaselineOptimizer().Optimize(part, r, o);
    };
  };
  RunExperiment(p, req, factory, 3, 50);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 50u);
  EXPECT_EQ(seen[1], 51u);
  EXPECT_EQ(seen[2], 52u);
}

}  // namespace
}  // namespace humo::eval
