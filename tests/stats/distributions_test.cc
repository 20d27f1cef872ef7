#include "stats/distributions.h"

#include <gtest/gtest.h>

namespace humo::stats {
namespace {

TEST(NormalTest, CdfReferenceValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
}

TEST(NormalTest, CdfMonotone) {
  double prev = 0.0;
  for (double x = -5.0; x <= 5.0; x += 0.1) {
    const double c = NormalCdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(NormalTest, QuantileReferenceValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644853627, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
}

TEST(NormalTest, TwoSidedCritical) {
  // P(-z < Z < z) = 0.95 -> z = 1.96.
  EXPECT_NEAR(NormalTwoSidedCritical(0.95), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalTwoSidedCritical(0.90), 1.644853627, 1e-6);
}

}  // namespace
}  // namespace humo::stats
