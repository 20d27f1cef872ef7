#include "ml/linear_svm.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/metrics.h"

namespace humo::ml {
namespace {

/// Two Gaussian blobs separated along the first feature.
Dataset SeparableBlobs(size_t n_per_class, double gap, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (size_t i = 0; i < n_per_class; ++i) {
    d.Add({rng.NextGaussian(-gap, 1.0), rng.NextGaussian()}, 0);
    d.Add({rng.NextGaussian(gap, 1.0), rng.NextGaussian()}, 1);
  }
  return d;
}

/// Fraction of `d` that `svm` classifies correctly.
double Accuracy(const LinearSvm& svm, const Dataset& d) {
  size_t correct = 0;
  for (size_t i = 0; i < d.size(); ++i)
    correct += svm.Predict(d.features[i]) == d.labels[i];
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

TEST(LinearSvmTest, SeparatesWellSeparatedBlobs) {
  const Dataset d = SeparableBlobs(300, 3.0, 1);
  const LinearSvm svm = LinearSvm::Train(d);
  EXPECT_GT(Accuracy(svm, d), 0.95);
}

TEST(LinearSvmTest, DecisionValueSignMatchesPrediction) {
  const Dataset d = SeparableBlobs(100, 2.0, 2);
  const LinearSvm svm = LinearSvm::Train(d);
  for (const auto& f : d.features) {
    EXPECT_EQ(svm.Predict(f), svm.DecisionValue(f) >= 0.0 ? 1 : 0);
  }
}

TEST(LinearSvmTest, WeightPointsTowardPositiveClass) {
  const Dataset d = SeparableBlobs(200, 3.0, 4);
  const LinearSvm svm = LinearSvm::Train(d);
  // Class 1 sits at positive x0, so w0 must be positive.
  EXPECT_GT(svm.weights()[0], 0.0);
}

TEST(LinearSvmTest, DeterministicUnderSeed) {
  const Dataset d = SeparableBlobs(100, 2.0, 5);
  SvmOptions o;
  o.seed = 7;
  const LinearSvm a = LinearSvm::Train(d, o);
  const LinearSvm b = LinearSvm::Train(d, o);
  ASSERT_EQ(a.weights().size(), b.weights().size());
  for (size_t i = 0; i < a.weights().size(); ++i)
    EXPECT_DOUBLE_EQ(a.weights()[i], b.weights()[i]);
  EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

TEST(LinearSvmTest, PositiveWeightRaisesRecallOnImbalancedData) {
  // 1:20 imbalance; cost-weighting the positive class should lift recall.
  Rng rng(6);
  Dataset d;
  for (int i = 0; i < 40; ++i) d.Add({rng.NextGaussian(1.2, 1.0)}, 1);
  for (int i = 0; i < 800; ++i) d.Add({rng.NextGaussian(-1.2, 1.0)}, 0);

  SvmOptions plain;
  plain.epochs = 40;
  SvmOptions weighted = plain;
  weighted.positive_weight = 20.0;

  const LinearSvm svm_plain = LinearSvm::Train(d, plain);
  const LinearSvm svm_weighted = LinearSvm::Train(d, weighted);

  auto recall_of = [&](const LinearSvm& svm) {
    std::vector<int> preds;
    for (const auto& f : d.features) preds.push_back(svm.Predict(f));
    return EvaluateLabels(preds, d.labels).recall();
  };
  EXPECT_GE(recall_of(svm_weighted), recall_of(svm_plain));
}

TEST(LinearSvmTest, HarderProblemLowerAccuracy) {
  const Dataset easy = SeparableBlobs(300, 3.0, 8);
  const Dataset hard = SeparableBlobs(300, 0.3, 8);
  auto accuracy_of = [](const Dataset& d) {
    return Accuracy(LinearSvm::Train(d), d);
  };
  EXPECT_GT(accuracy_of(easy), accuracy_of(hard));
}

}  // namespace
}  // namespace humo::ml
