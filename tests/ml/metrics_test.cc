#include "ml/metrics.h"

#include <gtest/gtest.h>

namespace humo::ml {
namespace {

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<int> truth = {1, 0, 1, 0};
  const auto m = EvaluateLabels(truth, truth);
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.f1(), 1.0);
}

TEST(MetricsTest, ConfusionCounts) {
  const std::vector<int> pred = {1, 1, 0, 0, 1};
  const std::vector<int> truth = {1, 0, 1, 0, 1};
  const auto m = EvaluateLabels(pred, truth);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_EQ(m.true_negatives, 1u);
}

TEST(MetricsTest, PrecisionRecallValues) {
  const std::vector<int> pred = {1, 1, 0, 0, 1};
  const std::vector<int> truth = {1, 0, 1, 0, 1};
  const auto m = EvaluateLabels(pred, truth);
  EXPECT_NEAR(m.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.f1(), 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, NoPredictedPositivesVacuousPrecision) {
  const auto m = EvaluateLabels({0, 0}, {1, 0});
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.f1(), 0.0);
}

TEST(MetricsTest, NoActualPositivesVacuousRecall) {
  const auto m = EvaluateLabels({0, 1}, {0, 0});
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.precision(), 0.0);
}

TEST(MetricsTest, EmptyInput) {
  const auto m = EvaluateLabels({}, {});
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.f1(), 1.0);
}

TEST(MetricsTest, F1IsHarmonicMean) {
  ClassificationMetrics m;
  m.true_positives = 30;
  m.false_positives = 10;  // precision 0.75
  m.false_negatives = 30;  // recall 0.5
  EXPECT_NEAR(m.f1(), 2 * 0.75 * 0.5 / (0.75 + 0.5), 1e-12);
}

}  // namespace
}  // namespace humo::ml
