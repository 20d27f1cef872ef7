#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/distributions.h"
#include "stats/proportion.h"

namespace humo::stats {
namespace {

/// Interval-method properties swept over (positives, n) grids.
class IntervalPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(IntervalPropertyTest, OrderedAndBounded) {
  const auto [k, n] = GetParam();
  for (double conf : {0.8, 0.9, 0.95, 0.99}) {
    const auto iv = WilsonInterval(k, n, conf);
    EXPECT_LE(iv.lo, iv.hi);
    EXPECT_GE(iv.lo, 0.0);
    EXPECT_LE(iv.hi, 1.0);
  }
}

TEST_P(IntervalPropertyTest, WilsonContainsPointEstimate) {
  const auto [k, n] = GetParam();
  const double p = n == 0 ? 0.0 : static_cast<double>(k) / n;
  const auto iv = WilsonInterval(k, n, 0.9);
  EXPECT_LE(iv.lo, p + 1e-12);
  EXPECT_GE(iv.hi, p - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IntervalPropertyTest,
    ::testing::Values(std::pair<size_t, size_t>{0, 10},
                      std::pair<size_t, size_t>{1, 10},
                      std::pair<size_t, size_t>{5, 10},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{0, 100},
                      std::pair<size_t, size_t>{3, 100},
                      std::pair<size_t, size_t>{50, 100},
                      std::pair<size_t, size_t>{97, 100},
                      std::pair<size_t, size_t>{100, 100},
                      std::pair<size_t, size_t>{500, 1000}),
    [](const ::testing::TestParamInfo<std::pair<size_t, size_t>>& info) {
      return "k" + std::to_string(info.param.first) + "_n" +
             std::to_string(info.param.second);
    });

/// Randomized interval properties: on several hundred (positives, n) draws,
/// the Wilson interval must bracket the MLE k/n and widen monotonically in
/// confidence.
TEST(IntervalRandomPropertyTest, WilsonBracketsTheMle) {
  Rng rng(2024);
  for (int rep = 0; rep < 300; ++rep) {
    const size_t n = 1 + rng.NextBelow(2000);
    const size_t k = rng.NextBelow(n + 1);
    const double mle = static_cast<double>(k) / static_cast<double>(n);
    for (double conf : {0.5, 0.8, 0.9, 0.95, 0.99}) {
      const auto wilson = WilsonInterval(k, n, conf);
      EXPECT_LE(wilson.lo, mle + 1e-12) << "k=" << k << " n=" << n;
      EXPECT_GE(wilson.hi, mle - 1e-12) << "k=" << k << " n=" << n;
    }
  }
}

TEST(IntervalRandomPropertyTest, IntervalsWidenMonotonicallyInConfidence) {
  Rng rng(77);
  for (int rep = 0; rep < 300; ++rep) {
    const size_t n = 2 + rng.NextBelow(1000);
    const size_t k = rng.NextBelow(n + 1);
    double prev_wilson = -1.0;
    for (double conf : {0.5, 0.7, 0.9, 0.99}) {
      const auto wilson = WilsonInterval(k, n, conf);
      const double w_width = wilson.hi - wilson.lo;
      EXPECT_GE(w_width + 1e-12, prev_wilson)
          << "k=" << k << " n=" << n << " conf=" << conf;
      prev_wilson = w_width;
    }
  }
}

TEST(NormalPropertyTest, CriticalValueMonotoneInConfidence) {
  double prev = 0.0;
  for (double conf = 0.5; conf < 0.999; conf += 0.05) {
    const double z = NormalTwoSidedCritical(conf);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

}  // namespace
}  // namespace humo::stats
