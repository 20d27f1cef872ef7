#include "stats/stratified.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace humo::stats
