#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gp/gp_regression.h"

namespace humo::gp {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The selector as it was before lane batching: one GpRegression::Fit per
/// candidate, then a strict-improvement scan in grid order (the first of a
/// tie wins).
Result<GpRegression> ReferenceSelect(const std::vector<double>& x,
                                     const std::vector<double>& y,
                                     const std::vector<GpCandidate>& grid,
                                     KernelFamily family, GpOptions options,
                                     const std::vector<double>& noise) {
  double best_lml = -std::numeric_limits<double>::infinity();
  Result<GpRegression> best =
      Status::Internal("no candidate produced a valid fit");
  for (const GpCandidate& cand : grid) {
    const Kernel kernel(family, cand.signal_variance, cand.length_scale);
    auto fit = GpRegression::Fit(kernel, x, y, options, noise);
    if (!fit.ok()) continue;
    const double lml = fit->LogMarginalLikelihood();
    if (lml > best_lml) {
      best_lml = lml;
      best = std::move(fit);
    }
  }
  return best;
}

void ExpectSameWinner(const Result<GpRegression>& got,
                      const Result<GpRegression>& want,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  EXPECT_EQ(got->kernel().family(), want->kernel().family()) << what;
  EXPECT_TRUE(SameBits(got->kernel().signal_variance(),
                       want->kernel().signal_variance()))
      << what;
  EXPECT_TRUE(
      SameBits(got->kernel().length_scale(), want->kernel().length_scale()))
      << what;
  for (double r : {0.0, 0.013, 0.1, 0.37, 1.0}) {
    const double k_got = got->kernel().EvalDistance(r);
    const double k_want = want->kernel().EvalDistance(r);
    EXPECT_TRUE(SameBits(k_got, k_want)) << what << " k(" << r << ")";
  }
  const double lml_got = got->LogMarginalLikelihood();
  const double lml_want = want->LogMarginalLikelihood();
  EXPECT_TRUE(SameBits(lml_got, lml_want)) << what << " lml";
  EXPECT_TRUE(SameBits(got->jitter_used(), want->jitter_used())) << what;
  for (int k = 0; k < 50; ++k) {
    const double q = -0.1 + 1.2 * k / 49.0;
    const Prediction a = got->Predict(q);
    const Prediction b = want->Predict(q);
    ASSERT_TRUE(SameBits(a.mean, b.mean)) << what << " mean at " << q;
    ASSERT_TRUE(SameBits(a.variance, b.variance)) << what << " var at " << q;
  }
}

struct TrainingSet {
  std::vector<double> x, y, noise;
};

/// Sorted similarities under a logistic match-rate curve with scatter —
/// the shape SAMP fits. When `noisy`, every point carries the sampling
/// variance of a 200-pair subset except every fourth, an exact pin with
/// zero noise.
TrainingSet MakeTraining(size_t n, bool noisy, uint64_t seed) {
  Rng rng(seed);
  TrainingSet t;
  for (size_t i = 0; i < n; ++i) t.x.push_back(rng.NextDouble());
  std::sort(t.x.begin(), t.x.end());
  for (size_t i = 0; i < n; ++i) {
    const double latent = 1.0 / (1.0 + std::exp(-12.0 * (t.x[i] - 0.55)));
    const double p = std::clamp(latent + 0.03 * rng.NextGaussian(), 0.0, 1.0);
    t.y.push_back(p);
    if (noisy) t.noise.push_back(i % 4 == 0 ? 0.0 : p * (1.0 - p) / 200.0);
  }
  return t;
}

std::vector<GpCandidate> FirstCandidates(size_t count) {
  std::vector<GpCandidate> grid = DefaultGpGrid();
  grid.resize(count);
  return grid;
}

const char* FamilyName(KernelFamily family) {
  switch (family) {
    case KernelFamily::kMatern32:
      return "matern32";
    case KernelFamily::kMatern52:
      return "matern52";
    case KernelFamily::kRbf:
      break;
  }
  return "rbf";
}

/// One sweep case: the selector against the reference on MakeTraining data
/// under SAMP's noise floor.
void CheckCase(size_t n, const std::vector<GpCandidate>& grid,
               KernelFamily family, bool noisy) {
  const TrainingSet t = MakeTraining(n, noisy, 100 + n);
  const auto& [x, y, noise] = t;
  GpOptions opt;
  opt.noise_variance = 1e-8;  // SAMP's floor
  std::string what = "threads=";
  what += std::to_string(ThreadPool::Global()->num_threads());
  what += " n=" + std::to_string(n);
  what += " grid=" + std::to_string(grid.size());
  what += std::string(" ") + FamilyName(family);
  what += " noisy=" + std::to_string(noisy);
  const auto got = SelectGpByMarginalLikelihood(x, y, grid, family, opt, noise);
  const auto want = ReferenceSelect(x, y, grid, family, opt, noise);
  ExpectSameWinner(got, want, what);
}

/// With no noise at all, long length scales make the Gram matrix
/// numerically singular, so their jitter-free lane factor fails and only
/// Fit's jitter escalation rescues them, while short scales factor as they
/// are. A straight line favours the long scales, so the winner is a
/// rescued candidate.
void CheckJitterRescue() {
  std::vector<double> x, y;
  for (size_t i = 0; i < 40; ++i) {
    x.push_back(i / 39.0);
    y.push_back(0.2 + 0.5 * x.back());
  }
  const std::vector<GpCandidate> mixed = {
      {0.25, 0.02}, {0.25, 0.05}, {0.25, 1.0}, {1.0, 1.0}, {0.01, 0.1}};
  const KernelFamily rbf = KernelFamily::kRbf;
  GpOptions exact;
  exact.noise_variance = 0.0;
  size_t jittered = 0;
  for (const GpCandidate& cand : mixed) {
    const Kernel kernel(rbf, cand.signal_variance, cand.length_scale);
    auto fit = GpRegression::Fit(kernel, x, y, exact);
    ASSERT_TRUE(fit.ok());
    jittered += fit->jitter_used() > 0.0;
  }
  ASSERT_GT(jittered, 0u);
  ASSERT_LT(jittered, mixed.size());
  const auto want = ReferenceSelect(x, y, mixed, rbf, exact, {});
  ASSERT_TRUE(want.ok());
  EXPECT_GT(want->jitter_used(), 0.0);
  const auto got = SelectGpByMarginalLikelihood(x, y, mixed, rbf, exact);
  ExpectSameWinner(got, want, "jitter rescue");
}

/// Every candidate fails: a negative noise variance that no jitter within
/// Cholesky::Factor's cap can offset.
void CheckAllCandidatesFail() {
  const TrainingSet t = MakeTraining(30, true, 5);
  std::vector<double> noise = t.noise;
  noise[7] = -1.0;
  const std::vector<GpCandidate> grid = DefaultGpGrid();
  const KernelFamily rbf = KernelFamily::kRbf;
  const auto got = SelectGpByMarginalLikelihood(t.x, t.y, grid, rbf, {}, noise);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  const auto want = ReferenceSelect(t.x, t.y, grid, rbf, {}, noise);
  ExpectSameWinner(got, want, "all candidates fail");
}

TEST(GpModelSelectionTest, MatchesPerCandidateReference) {
  std::vector<std::vector<GpCandidate>> grids;
  for (size_t count : {1, 3, 5, 29, 30})
    grids.push_back(FirstCandidates(count));
  for (size_t threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    for (size_t n : {1, 2, 3, 5, 63, 64, 65, 222, 301}) {
      for (size_t g = 0; g < grids.size(); ++g) {
        // The two largest sizes keep the full grid and one short grid.
        if (n > 100 && g != 2 && g != 4) continue;
        for (int f = 0; f < 3; ++f) {
          const KernelFamily family = static_cast<KernelFamily>(f);
          for (bool noisy : {false, true}) {
            CheckCase(n, grids[g], family, noisy);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
    CheckJitterRescue();
    CheckAllCandidatesFail();
    if (HasFatalFailure()) return;
  }
  ThreadPool::SetGlobalThreads(0);
}

void ExpectInvalid(const Result<GpRegression>& fit) {
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument)
      << fit.status().ToString();
}

const std::vector<double> kX = {0.1, 0.3, 0.5, 0.7, 0.9};
const std::vector<double> kY = {0.1, 0.2, 0.5, 0.8, 0.9};

TEST(GpModelSelectionTest, RejectsSizeMismatch) {
  ExpectInvalid(SelectGpByMarginalLikelihood(kX, {0.1, 0.2}, DefaultGpGrid(),
                                             KernelFamily::kRbf));
}

TEST(GpModelSelectionTest, RejectsEmptyTrainingSet) {
  ExpectInvalid(SelectGpByMarginalLikelihood({}, {}, DefaultGpGrid(),
                                             KernelFamily::kRbf));
}

TEST(GpModelSelectionTest, RejectsWrongLengthNoise) {
  ExpectInvalid(SelectGpByMarginalLikelihood(
      kX, kY, DefaultGpGrid(), KernelFamily::kRbf, {}, {1e-4, 1e-4}));
}

TEST(GpModelSelectionTest, RejectsNanInput) {
  std::vector<double> x = kX;
  x[2] = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalid(SelectGpByMarginalLikelihood(x, kY, DefaultGpGrid(),
                                             KernelFamily::kRbf));
}

TEST(GpModelSelectionTest, RejectsNonFiniteTargetOrNoise) {
  std::vector<double> y = kY;
  y[0] = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalid(SelectGpByMarginalLikelihood(kX, y, DefaultGpGrid(),
                                             KernelFamily::kRbf));
  std::vector<double> noise(kX.size(), 1e-4);
  noise[4] = std::numeric_limits<double>::infinity();
  ExpectInvalid(SelectGpByMarginalLikelihood(
      kX, kY, DefaultGpGrid(), KernelFamily::kRbf, {}, noise));
}

TEST(GpModelSelectionTest, RejectsZeroLengthScale) {
  ExpectInvalid(SelectGpByMarginalLikelihood(
      kX, kY, {{0.25, 0.1}, {0.25, 0.0}}, KernelFamily::kMatern32));
}

TEST(GpModelSelectionTest, RejectsNegativeSignalVariance) {
  ExpectInvalid(SelectGpByMarginalLikelihood(
      kX, kY, {{-0.25, 0.1}, {0.25, 0.2}}, KernelFamily::kRbf));
}

TEST(GpModelSelectionTest, RejectsNanSignalVariance) {
  ExpectInvalid(SelectGpByMarginalLikelihood(
      kX, kY, {{0.25, 0.1}, {std::numeric_limits<double>::quiet_NaN(), 0.2}},
      KernelFamily::kMatern52));
}

}  // namespace
}  // namespace humo::gp
