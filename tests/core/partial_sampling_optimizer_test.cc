#include "core/partial_sampling_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

TEST(PartialSamplingOptimizerTest, MeetsQualityOnSmoothWorkload) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  PartialSamplingOptimizer opt;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = opt.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.9);
  EXPECT_GE(q.recall, 0.9);
}

// Bracket refinement spends the whole sampling budget, max(j0, floor(m p_u)):
// it starts from about m p_l brackets against (p_u - p_l) m samples of
// budget. SAMP has no phase after it that could spend what it leaves.
TEST(PartialSamplingOptimizerTest, SamplesOnlyBudgetedFraction) {
  struct Case {
    data::Workload workload;
    double lo, hi;
  };
  const PartialSamplingOptions defaults;
  Case cases[] = {
      {MakeWorkload(), 0.01, 0.05},
      {data::SimulatePairs(data::DsConfig()), defaults.sample_fraction_lo,
       defaults.sample_fraction_hi},
      {data::SimulatePairs(data::AbConfig()), defaults.sample_fraction_lo,
       defaults.sample_fraction_hi},
  };
  for (const Case& c : cases) {
    SubsetPartition p(&c.workload, 200);
    Oracle oracle(&c.workload);
    PartialSamplingOptions o;
    o.sample_fraction_lo = c.lo;
    o.sample_fraction_hi = c.hi;
    PartialSamplingOptimizer opt(o);
    QualityRequirement req{0.9, 0.9, 0.9};
    auto outcome = opt.OptimizeDetailed(p, req, &oracle);
    ASSERT_TRUE(outcome.ok());
    size_t sampled = 0;
    for (bool s : outcome->sampled) sampled += s;
    const size_t m = p.num_subsets();
    const double md = static_cast<double>(m);
    const size_t lo_count = static_cast<size_t>(std::ceil(md * c.lo));
    const size_t hi_count = static_cast<size_t>(std::floor(md * c.hi));
    const size_t j0 = std::max(std::min<size_t>(4, m), std::min(lo_count, m));
    EXPECT_EQ(sampled, std::max(j0, hi_count)) << "m = " << m;
  }
}

TEST(PartialSamplingOptimizerTest, CheaperSamplingThanAllSampling) {
  // The whole point of Algorithm 1: far fewer sampled subsets.
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  PartialSamplingOptimizer opt;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto outcome = opt.OptimizeDetailed(p, req, &oracle);
  ASSERT_TRUE(outcome.ok());
  // Sampling cost before DH labeling: well under one-fifth of all-sampling's
  // m * samples_per_subset.
  const size_t all_sampling_cost =
      p.num_subsets() * opt.options().samples_per_subset;
  EXPECT_LT(oracle.cost(), all_sampling_cost / 5);
}

TEST(PartialSamplingOptimizerTest, OutcomeExposesModelAndStrata) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  PartialSamplingOptimizer opt;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto outcome = opt.OptimizeDetailed(p, req, &oracle);
  ASSERT_TRUE(outcome.ok());
  ASSERT_NE(outcome->model, nullptr);
  EXPECT_EQ(outcome->model->num_subsets(), p.num_subsets());
  EXPECT_EQ(outcome->strata.size(), p.num_subsets());
  EXPECT_EQ(outcome->sampled.size(), p.num_subsets());
  // Sampled subsets carry data; unsampled ones are empty.
  for (size_t k = 0; k < p.num_subsets(); ++k) {
    if (outcome->sampled[k]) {
      EXPECT_GT(outcome->strata[k].sample_size, 0u);
    } else {
      EXPECT_EQ(outcome->strata[k].sample_size, 0u);
    }
  }
}

TEST(PartialSamplingOptimizerTest, GpTracksTrueProportionCurve) {
  const data::Workload w = MakeWorkload(14.0, 0.02, 5);
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  PartialSamplingOptions o;
  o.samples_per_subset = 50;
  PartialSamplingOptimizer opt(o);
  QualityRequirement req{0.9, 0.9, 0.9};
  auto outcome = opt.OptimizeDetailed(p, req, &oracle);
  ASSERT_TRUE(outcome.ok());
  // Posterior means should be close to the generating logistic curve.
  double max_err = 0.0;
  for (size_t k = 0; k < p.num_subsets(); ++k) {
    const double truth =
        data::LogisticMatchProportion(p[k].avg_similarity, 14.0);
    max_err = std::max(max_err,
                       std::fabs(outcome->model->PosteriorMean(k) - truth));
  }
  EXPECT_LT(max_err, 0.25);
}

TEST(PartialSamplingOptimizerTest, SucceedsAcrossSeeds) {
  const data::Workload w = MakeWorkload();
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.85, 0.85, 0.9};
  size_t successes = 0;
  const size_t trials = 10;
  for (size_t t = 0; t < trials; ++t) {
    Oracle oracle(&w);
    PartialSamplingOptions o;
    o.seed = 2000 + t;
    auto sol = PartialSamplingOptimizer(o).Optimize(p, req, &oracle);
    ASSERT_TRUE(sol.ok());
    const auto result = ApplySolution(p, *sol, &oracle);
    const auto q = eval::QualityOf(w, result.labels);
    if (q.precision >= req.alpha && q.recall >= req.beta) ++successes;
  }
  EXPECT_GE(successes, 8u);
}

TEST(PartialSamplingOptimizerTest, WorksOnSimulatedDsWorkload) {
  const data::Workload w = data::SimulatePairs(data::DsConfigSmall(7, 20000));
  SubsetPartition p(&w, 200);
  Oracle oracle(&w);
  PartialSamplingOptimizer opt;
  QualityRequirement req{0.9, 0.9, 0.9};
  auto sol = opt.Optimize(p, req, &oracle);
  ASSERT_TRUE(sol.ok());
  const auto result = ApplySolution(p, *sol, &oracle);
  const auto q = eval::QualityOf(w, result.labels);
  EXPECT_GE(q.precision, 0.88);
  EXPECT_GE(q.recall, 0.88);
}

TEST(PartialSamplingOptimizerTest, RejectsBadInputs) {
  const data::Workload w = MakeWorkload(14.0, 0.05, 1, 2000);
  SubsetPartition p(&w, 200);
  QualityRequirement req{0.9, 0.9, 0.9};
  PartialSamplingOptimizer opt;
  EXPECT_FALSE(opt.Optimize(p, req, nullptr).ok());
  PartialSamplingOptions zero;
  zero.samples_per_subset = 0;
  Oracle o1(&w);
  EXPECT_FALSE(PartialSamplingOptimizer(zero).Optimize(p, req, &o1).ok());
  PartialSamplingOptions bad_range;
  bad_range.sample_fraction_lo = 0.1;
  bad_range.sample_fraction_hi = 0.01;
  Oracle o2(&w);
  EXPECT_FALSE(PartialSamplingOptimizer(bad_range).Optimize(p, req, &o2).ok());
}

}  // namespace
}  // namespace humo::core
