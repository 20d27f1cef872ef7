#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace humo {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(11);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithMeanAndStddev) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(31);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-1.0));
  EXPECT_TRUE(rng.NextBernoulli(2.0));
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(41);
  std::vector<int> empty, single = {9};
  rng.Shuffle(&empty);
  rng.Shuffle(&single);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(single[0], 9);
}

TEST(RngTest, ShuffleWorksOnVectorBool) {
  Rng rng(43);
  std::vector<bool> v(10, false);
  for (int i = 0; i < 5; ++i) v[i] = true;
  rng.Shuffle(&v);
  EXPECT_EQ(std::count(v.begin(), v.end(), true), 5);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(47);
  const auto picks = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(53);
  const auto picks = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementZero) {
  Rng rng(59);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  // Each index should appear roughly k/n of the time across repetitions.
  const size_t n = 20, k = 5;
  std::vector<int> counts(n, 0);
  Rng rng(61);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    for (size_t idx : rng.SampleWithoutReplacement(n, k)) ++counts[idx];
  }
  const double expected = static_cast<double>(reps) * k / n;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, expected * 0.1) << "index " << i;
  }
}

}  // namespace
}  // namespace humo
