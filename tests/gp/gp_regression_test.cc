#include "gp/gp_regression.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace humo::gp {
namespace {

GpOptions TightOptions() {
  GpOptions o;
  o.noise_variance = 1e-8;
  return o;
}

TEST(GpRegressionTest, InterpolatesTrainingPointsWithLowNoise) {
  const std::vector<double> x = {0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<double> y = {0.0, 0.2, 0.5, 0.8, 0.95};
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.2), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  for (size_t i = 0; i < x.size(); ++i) {
    const auto p = gp->Predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-3) << "at x=" << x[i];
    EXPECT_LT(p.stddev(), 0.05);
  }
}

TEST(GpRegressionTest, UncertaintyGrowsAwayFromData) {
  const std::vector<double> x = {0.4, 0.5, 0.6};
  const std::vector<double> y = {0.4, 0.5, 0.6};
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.05), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const double var_near = gp->Predict(0.5).variance;
  const double var_far = gp->Predict(0.95).variance;
  EXPECT_GT(var_far, var_near * 10.0);
}

TEST(GpRegressionTest, SmoothInterpolationBetweenPoints) {
  // Linear-ish data: midpoint prediction should land between neighbors.
  const std::vector<double> x = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<double> y = {0.0, 0.1, 0.3, 0.6, 0.85, 0.95};
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, 0.5, 0.25), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const double mid = gp->Predict(0.5).mean;
  EXPECT_GT(mid, 0.3);
  EXPECT_LT(mid, 0.6);
}

TEST(GpRegressionTest, RejectsBadInputs) {
  const Kernel rbf(KernelFamily::kRbf, 1.0, 0.1);
  EXPECT_FALSE(GpRegression::Fit(rbf, {0.1, 0.2}, {0.2}).ok());
  EXPECT_FALSE(GpRegression::Fit(rbf, {}, {}).ok());
  EXPECT_FALSE(GpRegression::Fit(rbf, {0.1}, {0.2}, {}, {0.1, 0.1}).ok());
  // Non-finite observations and non-positive hyperparameters are the
  // caller's error, not a NaN model or a failed factorization.
  const double nan = std::nan("");
  const std::vector<double> x = {0.1, 0.5, 0.9};
  auto nan_y = GpRegression::Fit(rbf, x, {0.2, nan, 0.8});
  EXPECT_EQ(nan_y.status().code(), StatusCode::kInvalidArgument);
  auto zero_l = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.0), x,
                                  {0.2, 0.5, 0.8});
  EXPECT_EQ(zero_l.status().code(), StatusCode::kInvalidArgument);
  auto gp = GpRegression::Fit(rbf, x, {0.2, 0.5, 0.8});
  ASSERT_TRUE(gp.ok());
  EXPECT_EQ(gp->ExtendedWith({0.7}, {nan}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GpRegressionTest, HeteroscedasticNoiseWidensLocally) {
  const std::vector<double> x = {0.2, 0.5, 0.8};
  const std::vector<double> y = {0.3, 0.5, 0.7};
  // Give the middle observation huge noise.
  auto gp_noisy = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.2), x, y,
                                    TightOptions(), {1e-8, 0.5, 1e-8});
  auto gp_clean = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.2), x, y,
                                    TightOptions(), {1e-8, 1e-8, 1e-8});
  ASSERT_TRUE(gp_noisy.ok());
  ASSERT_TRUE(gp_clean.ok());
  EXPECT_GT(gp_noisy->Predict(0.5).variance, gp_clean->Predict(0.5).variance);
}

TEST(GpRegressionTest, JointPredictionDiagonalMatchesPointwise) {
  const std::vector<double> x = {0.1, 0.3, 0.5, 0.7};
  const std::vector<double> y = {0.1, 0.4, 0.5, 0.9};
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.15), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const std::vector<double> q = {0.2, 0.6, 0.95};
  const auto joint = gp->PredictJoint(q);
  ASSERT_EQ(joint.mean.size(), 3u);
  for (size_t i = 0; i < q.size(); ++i) {
    const auto p = gp->Predict(q[i]);
    EXPECT_NEAR(joint.mean[i], p.mean, 1e-9);
    EXPECT_NEAR(joint.covariance(i, i), p.variance, 1e-9);
  }
}

TEST(GpRegressionTest, JointCovarianceOffDiagonalPositiveForNearbyPoints) {
  const std::vector<double> x = {0.1, 0.9};
  const std::vector<double> y = {0.2, 0.8};
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.2), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const auto joint = gp->PredictJoint({0.48, 0.52});
  EXPECT_GT(joint.covariance(0, 1), 0.0);
  EXPECT_NEAR(joint.covariance(0, 1), joint.covariance(1, 0), 1e-12);
}

TEST(GpRegressionTest, WhitenedCrossConsistentWithVariance) {
  const std::vector<double> x = {0.2, 0.4, 0.6, 0.8};
  const std::vector<double> y = {0.2, 0.3, 0.6, 0.9};
  auto gp = GpRegression::Fit(Kernel(KernelFamily::kRbf, 1.0, 0.2), x, y,
                              TightOptions());
  ASSERT_TRUE(gp.ok());
  const double q = 0.55;
  const auto w = gp->WhitenedCross(q);
  double dot = 0.0;
  for (double v : w) dot += v * v;
  const auto p = gp->Predict(q);
  EXPECT_NEAR(p.variance, gp->kernel()(q, q) - dot, 1e-9);
}

TEST(GpRegressionTest, LogMarginalLikelihoodPrefersTrueLengthScale) {
  // Sample a smooth function; a wildly wrong length scale should score
  // worse than a sensible one.
  humo::Rng rng(5);
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) {
    const double xi = i / 20.0;
    x.push_back(xi);
    y.push_back(std::sin(3.0 * xi) * 0.4 + 0.5 +
                0.01 * rng.NextGaussian());
  }
  GpOptions o;
  o.noise_variance = 1e-4;
  auto good = GpRegression::Fit(Kernel(KernelFamily::kRbf, 0.3, 0.3), x, y, o);
  auto bad = GpRegression::Fit(Kernel(KernelFamily::kRbf, 0.3, 0.001), x, y, o);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_GT(good->LogMarginalLikelihood(), bad->LogMarginalLikelihood());
}

TEST(GpModelSelectionTest, PicksBestCandidateOnGrid) {
  std::vector<double> x, y;
  for (int i = 0; i <= 15; ++i) {
    const double xi = i / 15.0;
    x.push_back(xi);
    y.push_back(0.95 / (1.0 + std::exp(-14.0 * (xi - 0.55))));
  }
  auto gp = SelectGpByMarginalLikelihood(x, y, DefaultGpGrid(),
                                         KernelFamily::kRbf);
  ASSERT_TRUE(gp.ok());
  // The selected model should interpolate the logistic decently.
  EXPECT_NEAR(gp->Predict(0.55).mean, 0.475, 0.08);
}

TEST(GpModelSelectionTest, EmptyGridFails) {
  EXPECT_FALSE(SelectGpByMarginalLikelihood({0.1}, {0.2}, {},
                                            KernelFamily::kRbf)
                   .ok());
}

TEST(GpModelSelectionTest, WorksForAllKernelFamilies) {
  const std::vector<double> x = {0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<double> y = {0.1, 0.2, 0.5, 0.8, 0.9};
  for (auto family : {KernelFamily::kRbf, KernelFamily::kMatern32,
                      KernelFamily::kMatern52}) {
    auto gp = SelectGpByMarginalLikelihood(x, y, DefaultGpGrid(), family);
    ASSERT_TRUE(gp.ok());
    EXPECT_NEAR(gp->Predict(0.5).mean, 0.5, 0.15);
  }
}

}  // namespace
}  // namespace humo::gp
