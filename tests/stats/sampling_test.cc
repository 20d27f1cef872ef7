#include "stats/sampling.h"

#include <gtest/gtest.h>

namespace humo::stats {
namespace {

/// Welford running mean and unbiased variance of the draws.
struct Moments {
  size_t n = 0;
  double mu = 0.0, m2 = 0.0;
  void Add(double x) {
    ++n;
    const double d = x - mu;
    mu += d / static_cast<double>(n);
    m2 += d * (x - mu);
  }
  double mean() const { return mu; }
  double variance() const {
    return n < 2 ? 0.0 : m2 / static_cast<double>(n - 1);
  }
};

TEST(SampleGammaTest, MeanAndVarianceMatchShape) {
  Rng rng(3);
  for (double shape : {0.5, 1.0, 2.5, 7.0}) {
    Moments rs;
    for (int i = 0; i < 60000; ++i) rs.Add(SampleGamma(&rng, shape));
    EXPECT_NEAR(rs.mean(), shape, 0.05 * shape + 0.02) << "shape=" << shape;
    EXPECT_NEAR(rs.variance(), shape, 0.12 * shape + 0.05) << "shape=" << shape;
  }
}

TEST(SampleGammaTest, AlwaysPositive) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(SampleGamma(&rng, 0.3), 0.0);
    EXPECT_GT(SampleGamma(&rng, 4.0), 0.0);
  }
}

TEST(SampleBetaTest, InUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = SampleBeta(&rng, 2.0, 5.0);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(SampleBetaTest, MeanMatchesAlphaOverSum) {
  Rng rng(11);
  for (auto [a, b] : {std::pair{2.0, 5.0}, {5.0, 2.0}, {1.0, 1.0}}) {
    Moments rs;
    for (int i = 0; i < 60000; ++i) rs.Add(SampleBeta(&rng, a, b));
    EXPECT_NEAR(rs.mean(), a / (a + b), 0.01) << a << "," << b;
  }
}

TEST(SampleBetaTest, SkewDirection) {
  Rng rng(13);
  Moments low, high;
  for (int i = 0; i < 20000; ++i) {
    low.Add(SampleBeta(&rng, 1.2, 8.0));   // skewed toward 0
    high.Add(SampleBeta(&rng, 8.0, 1.2));  // skewed toward 1
  }
  EXPECT_LT(low.mean(), 0.25);
  EXPECT_GT(high.mean(), 0.75);
}

}  // namespace
}  // namespace humo::stats
