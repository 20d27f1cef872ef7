#include "stats/proportion.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace humo::stats {
namespace {

TEST(ProportionTest, ZeroSampleIsVacuous) {
  const auto iv = WilsonInterval(0, 0, 0.95);
  EXPECT_DOUBLE_EQ(iv.lo, 0.0);
  EXPECT_DOUBLE_EQ(iv.hi, 1.0);
}

TEST(ProportionTest, IntervalsContainPointEstimate) {
  const size_t n = 50, k = 20;
  const double p = static_cast<double>(k) / n;
  const auto iv = WilsonInterval(k, n, 0.9);
  EXPECT_LE(iv.lo, p);
  EXPECT_GE(iv.hi, p);
  EXPECT_GE(iv.lo, 0.0);
  EXPECT_LE(iv.hi, 1.0);
}

TEST(ProportionTest, WilsonBehavesAtExtremes) {
  const auto zero = WilsonInterval(0, 20, 0.95);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);  // Wilson keeps a sensible upper bound
  const auto all = WilsonInterval(20, 20, 0.95);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
}

TEST(ProportionTest, HigherConfidenceWidens) {
  const auto narrow = WilsonInterval(12, 40, 0.8);
  const auto wide = WilsonInterval(12, 40, 0.99);
  EXPECT_LE(wide.lo, narrow.lo);
  EXPECT_GE(wide.hi, narrow.hi);
}

TEST(ProportionTest, LargerSampleNarrows) {
  const auto small = WilsonInterval(5, 20, 0.9);
  const auto large = WilsonInterval(250, 1000, 0.9);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(ProportionTest, WilsonCoverage) {
  // Monte-Carlo: the two-sided 90% Wilson interval should cover the true p
  // close to (or above) 90% of the time.
  Rng rng(7);
  const double p = 0.85;
  const size_t n = 60;
  int covered = 0;
  const int reps = 2000;
  for (int r = 0; r < reps; ++r) {
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) k += rng.NextBernoulli(p);
    const auto iv = WilsonInterval(k, n, 0.9);
    if (iv.lo <= p && p <= iv.hi) ++covered;
  }
  EXPECT_GE(static_cast<double>(covered) / reps, 0.87);
}

}  // namespace
}  // namespace humo::stats
