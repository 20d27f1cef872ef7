#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gp/gp_regression.h"

namespace humo::gp {
namespace {

struct TrainingSet {
  std::vector<double> x, y, noise;
};

TrainingSet MakeTraining(size_t n, uint64_t seed) {
  Rng rng(seed);
  TrainingSet t;
  for (size_t i = 0; i < n; ++i) t.x.push_back(rng.NextDouble());
  std::sort(t.x.begin(), t.x.end());
  for (size_t i = 0; i < n; ++i) {
    const double latent = 1.0 / (1.0 + std::exp(-10.0 * (t.x[i] - 0.5)));
    t.y.push_back(latent + 0.03 * rng.NextGaussian());
    t.noise.push_back(1e-4 + 1e-4 * rng.NextDouble());
  }
  return t;
}

GpRegression FitRbf(const TrainingSet& t, double sf2 = 0.25, double l = 0.1) {
  GpOptions o;
  o.noise_variance = 1e-6;
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, sf2, l), t.x, t.y, o,
                              t.noise);
  EXPECT_TRUE(gp.ok());
  return std::move(*gp);
}

std::vector<double> MakeQueries(size_t q, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> qs(q);
  for (double& v : qs) v = rng.NextDouble(-0.2, 1.2);  // incl. extrapolation
  return qs;
}

TEST(PredictBatchTest, MatchesPerPointBitForBit) {
  const TrainingSet t = MakeTraining(40, 1);
  const GpRegression gp = FitRbf(t);
  // 101 queries: exercises the blocked multi-RHS path AND the tail rows.
  const std::vector<double> qs = MakeQueries(101, 2);
  std::vector<linalg::Vector> whitened;
  const std::vector<Prediction> batch = gp.PredictBatch(qs, &whitened);
  ASSERT_EQ(batch.size(), qs.size());
  ASSERT_EQ(whitened.size(), qs.size());
  for (size_t j = 0; j < qs.size(); ++j) {
    const Prediction p = gp.Predict(qs[j]);
    EXPECT_EQ(batch[j].mean, p.mean) << "query " << j;          // bitwise
    EXPECT_EQ(batch[j].variance, p.variance) << "query " << j;  // bitwise
    const linalg::Vector w = gp.WhitenedCross(qs[j]);
    ASSERT_EQ(whitened[j].size(), w.size());
    for (size_t i = 0; i < w.size(); ++i)
      EXPECT_EQ(whitened[j][i], w[i]) << "query " << j << " dim " << i;
  }
}

TEST(PredictBatchTest, ThreadCountDoesNotChangeResults) {
  const TrainingSet t = MakeTraining(64, 3);
  const std::vector<double> qs = MakeQueries(97, 4);
  auto run = [&](size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    const GpRegression gp = FitRbf(t);
    return gp.PredictBatch(qs);
  };
  const std::vector<Prediction> serial = run(1);
  const std::vector<Prediction> parallel = run(4);
  ThreadPool::SetGlobalThreads(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t j = 0; j < serial.size(); ++j) {
    EXPECT_EQ(serial[j].mean, parallel[j].mean) << "query " << j;
    EXPECT_EQ(serial[j].variance, parallel[j].variance) << "query " << j;
  }
}

TEST(PredictBatchTest, JointPredictionDiagonalMatchesPointVariance) {
  const TrainingSet t = MakeTraining(30, 5);
  const GpRegression gp = FitRbf(t);
  const std::vector<double> qs = MakeQueries(9, 6);
  const JointPrediction jp = gp.PredictJoint(qs);
  for (size_t j = 0; j < qs.size(); ++j) {
    const Prediction p = gp.Predict(qs[j]);
    EXPECT_EQ(jp.mean[j], p.mean);
    // Same whitened solve, same dot, same clamp.
    EXPECT_EQ(jp.covariance(j, j), p.variance);
  }
  // Symmetry is preserved by the blocked build.
  for (size_t a = 0; a < qs.size(); ++a)
    for (size_t b = 0; b < qs.size(); ++b)
      EXPECT_EQ(jp.covariance(a, b), jp.covariance(b, a));
}

TEST(PredictBatchTest, ExtendedWithAgreesWithFromScratchFit) {
  const TrainingSet t = MakeTraining(24, 7);
  const size_t n0 = 20;
  GpOptions o;
  o.noise_variance = 1e-6;
  auto base = GpRegression::Fit(
      Kernel(KernelFamily::kRbf, 0.25, 0.1),
      std::vector<double>(t.x.begin(), t.x.begin() + n0),
      std::vector<double>(t.y.begin(), t.y.begin() + n0), o,
      std::vector<double>(t.noise.begin(), t.noise.begin() + n0));
  ASSERT_TRUE(base.ok());
  auto extended = base->ExtendedWith(
      std::vector<double>(t.x.begin() + n0, t.x.end()),
      std::vector<double>(t.y.begin() + n0, t.y.end()),
      std::vector<double>(t.noise.begin() + n0, t.noise.end()));
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->num_training_points(), t.x.size());

  auto scratch = GpRegression::Fit(Kernel(KernelFamily::kRbf, 0.25, 0.1), t.x,
                                   t.y, o, t.noise);
  ASSERT_TRUE(scratch.ok());
  EXPECT_NEAR(extended->LogMarginalLikelihood(),
              scratch->LogMarginalLikelihood(), 1e-9);
  for (double q : {0.0, 0.21, 0.5, 0.83, 1.0}) {
    const Prediction a = extended->Predict(q);
    const Prediction b = scratch->Predict(q);
    EXPECT_NEAR(a.mean, b.mean, 1e-9) << "x=" << q;
    EXPECT_NEAR(a.variance, b.variance, 1e-9) << "x=" << q;
  }
}

TEST(PredictBatchTest, ExtendedWithEmptyIsClone) {
  const TrainingSet t = MakeTraining(16, 8);
  const GpRegression gp = FitRbf(t);
  auto same = gp.ExtendedWith({}, {});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->num_training_points(), gp.num_training_points());
  EXPECT_EQ(same->LogMarginalLikelihood(), gp.LogMarginalLikelihood());
  const Prediction a = gp.Predict(0.4), b = same->Predict(0.4);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.variance, b.variance);
}

TEST(PredictBatchTest, ExtendedWithRejectsMismatchedInputs) {
  const TrainingSet t = MakeTraining(10, 9);
  const GpRegression gp = FitRbf(t);
  EXPECT_FALSE(gp.ExtendedWith({0.5}, {}).ok());
  EXPECT_FALSE(gp.ExtendedWith({0.5}, {0.5}, {1e-4, 1e-4}).ok());
}

TEST(PredictBatchTest, EmptyBatchIsEmpty) {
  const TrainingSet t = MakeTraining(12, 10);
  const GpRegression gp = FitRbf(t);
  EXPECT_TRUE(gp.PredictBatch({}).empty());
}

}  // namespace
}  // namespace humo::gp
