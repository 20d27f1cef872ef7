#include "stats/stratified.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace humo::stats {
namespace {

TEST(StratumTest, ProportionBasics) {
  Stratum s{/*population=*/200, /*sample_size=*/20, /*sample_positives=*/5};
  EXPECT_DOUBLE_EQ(s.proportion(), 0.25);
  EXPECT_FALSE(s.fully_enumerated());
}

TEST(StratumTest, EmptySample) {
  Stratum s{200, 0, 0};
  EXPECT_DOUBLE_EQ(s.proportion(), 0.0);
  // Unsampled and not enumerated: worst-case variance.
  EXPECT_DOUBLE_EQ(s.proportion_variance(), 0.25);
}

TEST(StratumTest, FullyEnumeratedHasNoVariance) {
  Stratum s{50, 50, 20};
  EXPECT_TRUE(s.fully_enumerated());
  EXPECT_DOUBLE_EQ(s.proportion_variance(), 0.0);
}

TEST(StratumTest, VarianceFormulaWithFpc) {
  Stratum s{100, 10, 5};
  // (1 - 10/100) * 0.5*0.5 / 9 = 0.9 * 0.25 / 9 = 0.025.
  EXPECT_NEAR(s.proportion_variance(), 0.025, 1e-12);
}

TEST(StratumTest, ZeroOrOneProportionHasZeroVariance) {
  Stratum all{100, 10, 10};
  Stratum none{100, 10, 0};
  EXPECT_DOUBLE_EQ(all.proportion_variance(), 0.0);
  EXPECT_DOUBLE_EQ(none.proportion_variance(), 0.0);
}

TEST(CombineStrataTest, PointEstimateSumsStrata) {
  std::vector<Stratum> strata = {{100, 10, 5}, {200, 20, 4}};
  const auto est = CombineStrata(strata);
  // 100*0.5 + 200*0.2 = 90.
  EXPECT_NEAR(est.total_mean, 90.0, 1e-12);
  EXPECT_EQ(est.population, 300u);
  // df = (10-1) + (20-1) = 28.
  EXPECT_DOUBLE_EQ(est.degrees_of_freedom, 28.0);
}

TEST(CombineStrataTest, VarianceAddsAcrossStrata) {
  std::vector<Stratum> strata = {{100, 10, 5}, {200, 20, 4}};
  const auto est = CombineStrata(strata);
  const double v1 = strata[0].proportion_variance() * 100.0 * 100.0;
  const double v2 = strata[1].proportion_variance() * 200.0 * 200.0;
  EXPECT_NEAR(est.total_stddev, std::sqrt(v1 + v2), 1e-12);
}

TEST(CombineStrataTest, BoundsBracketMeanAndClampToPopulation) {
  std::vector<Stratum> strata = {{100, 10, 5}, {200, 20, 4}};
  const auto est = CombineStrata(strata);
  const double lb = est.LowerBound(0.95);
  const double ub = est.UpperBound(0.95);
  EXPECT_LT(lb, est.total_mean);
  EXPECT_GT(ub, est.total_mean);
  EXPECT_GE(lb, 0.0);
  EXPECT_LE(ub, 300.0);
}

TEST(CombineStrataTest, HigherConfidenceWidensInterval) {
  std::vector<Stratum> strata = {{500, 25, 10}};
  const auto est = CombineStrata(strata);
  const double narrow = est.UpperBound(0.8) - est.LowerBound(0.8);
  const double wide = est.UpperBound(0.99) - est.LowerBound(0.99);
  EXPECT_GT(wide, narrow);
}

TEST(CombineStrataTest, FullyEnumeratedIsExact) {
  std::vector<Stratum> strata = {{50, 50, 30}};
  const auto est = CombineStrata(strata);
  EXPECT_DOUBLE_EQ(est.total_stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.LowerBound(0.99), 30.0);
  EXPECT_DOUBLE_EQ(est.UpperBound(0.99), 30.0);
}

TEST(CombineStrataTest, UnionProportion) {
  std::vector<Stratum> strata = {{100, 10, 5}, {100, 10, 1}};
  const auto est = CombineStrata(strata);
  EXPECT_NEAR(UnionProportion(est), (50.0 + 10.0) / 200.0, 1e-12);
}

TEST(CombineStrataTest, EmptyInput) {
  const auto est = CombineStrata({});
  EXPECT_DOUBLE_EQ(est.total_mean, 0.0);
  EXPECT_EQ(est.population, 0u);
  EXPECT_DOUBLE_EQ(UnionProportion(est), 0.0);
}

TEST(CombineStrataTest, CoverageSimulation) {
  // Monte-Carlo check: the 90% interval should cover the true total in
  // roughly >= 90% of simulated stratified samples.
  Rng rng(99);
  const size_t strata_count = 10, population = 200, sample = 25;
  // True per-stratum proportions rising from 0.05 to 0.95.
  std::vector<double> truth(strata_count);
  double true_total = 0.0;
  for (size_t k = 0; k < strata_count; ++k) {
    truth[k] = 0.05 + 0.9 * static_cast<double>(k) / (strata_count - 1);
    true_total += truth[k] * population;
  }
  int covered = 0;
  const int reps = 400;
  for (int r = 0; r < reps; ++r) {
    std::vector<Stratum> strata(strata_count);
    for (size_t k = 0; k < strata_count; ++k) {
      strata[k].population = population;
      strata[k].sample_size = sample;
      // Hypergeometric-ish: approximate by binomial draw on truth.
      size_t pos = 0;
      for (size_t i = 0; i < sample; ++i) pos += rng.NextBernoulli(truth[k]);
      strata[k].sample_positives = pos;
    }
    const auto est = CombineStrata(strata);
    if (est.LowerBound(0.9) <= true_total && true_total <= est.UpperBound(0.9))
      ++covered;
  }
  EXPECT_GE(static_cast<double>(covered) / reps, 0.85);
}

}  // namespace
}  // namespace humo::stats
