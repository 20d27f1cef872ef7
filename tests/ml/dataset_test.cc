#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <set>

namespace humo::ml {
namespace {

Dataset MakeDataset(size_t n) {
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    d.Add({static_cast<double>(i), static_cast<double>(i) * 2},
          i % 3 == 0 ? 1 : 0);
  }
  return d;
}

TEST(DatasetTest, SizeAndFeatures) {
  Dataset d = MakeDataset(9);
  EXPECT_EQ(d.size(), 9u);
  EXPECT_EQ(d.num_features(), 2u);
}

TEST(DatasetTest, EmptyDataset) {
  Dataset d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.num_features(), 0u);
}

TEST(SplitDatasetTest, SplitsAtFraction) {
  Dataset d = MakeDataset(100);
  Rng rng(1);
  const auto split = SplitDataset(d, 0.7, &rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
}

TEST(SplitDatasetTest, PreservesAllExamples) {
  Dataset d = MakeDataset(50);
  Rng rng(2);
  const auto split = SplitDataset(d, 0.5, &rng);
  std::multiset<double> seen;
  for (const auto& f : split.train.features) seen.insert(f[0]);
  for (const auto& f : split.test.features) seen.insert(f[0]);
  EXPECT_EQ(seen.size(), 50u);
  for (size_t i = 0; i < 50; ++i)
    EXPECT_TRUE(seen.count(static_cast<double>(i)));
}

TEST(SplitDatasetTest, ExtremeFractions) {
  Dataset d = MakeDataset(10);
  Rng rng(3);
  EXPECT_EQ(SplitDataset(d, 0.0, &rng).train.size(), 0u);
  EXPECT_EQ(SplitDataset(d, 1.0, &rng).test.size(), 0u);
}

}  // namespace
}  // namespace humo::ml
