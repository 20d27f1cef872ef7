#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "common/thread_pool.h"

namespace humo::linalg {
namespace {

Matrix Spd3() {
  // A = B B^T + I for a fixed B is symmetric positive definite.
  Matrix b = Matrix::FromRows({{1, 2, 0}, {0, 1, 1}, {2, 0, 1}});
  Matrix a = b * b.Transpose();
  a.AddToDiagonal(1.0);
  return a;
}

TEST(CholeskyTest, FactorReconstructs) {
  const Matrix a = Spd3();
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const Matrix recon = chol->L() * chol->L().Transpose();
  EXPECT_LT(recon.MaxAbsDiff(a), 1e-10);
  EXPECT_DOUBLE_EQ(chol->jitter_used(), 0.0);
}

TEST(CholeskyTest, SolveMatchesDirectCheck) {
  const Matrix a = Spd3();
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const Vector b = {1.0, -2.0, 0.5};
  const Vector x = chol->Solve(b);
  const Vector ax = a * x;
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(CholeskyTest, SolveLowerIsForwardSubstitution) {
  const Matrix a = Spd3();
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const Vector b = {1.0, 2.0, 3.0};
  const Vector y = chol->SolveLower(b);
  const Vector ly = chol->L() * y;
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(ly[i], b[i], 1e-10);
}

TEST(CholeskyTest, LogDeterminant) {
  Matrix d(3, 3);
  d(0, 0) = 2.0;
  d(1, 1) = 3.0;
  d(2, 2) = 4.0;
  auto chol = Cholesky::Factor(d);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDeterminant(), std::log(24.0), 1e-10);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix m(2, 3);
  EXPECT_FALSE(Cholesky::Factor(m).ok());
}

TEST(CholeskyTest, JitterRescuesSingularMatrix) {
  // Rank-1 matrix: outer product of (1,1,1) with itself.
  Matrix a(3, 3, 1.0);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_GT(chol->jitter_used(), 0.0);
}

TEST(CholeskyTest, FailsOnNegativeDefinite) {
  Matrix a = Matrix::Identity(2);
  a(0, 0) = -5.0;
  a(1, 1) = -5.0;
  // No jitter up to Factor's 1e-2 cap lifts a pivot of -5.
  auto chol = Cholesky::Factor(a);
  EXPECT_FALSE(chol.ok());
}

TEST(CholeskyTest, RandomSpdRoundTrip) {
  humo::Rng rng(31);
  for (int rep = 0; rep < 10; ++rep) {
    const size_t n = 5 + rng.NextBelow(10);
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) b(i, j) = rng.NextGaussian();
    Matrix a = b * b.Transpose();
    a.AddToDiagonal(static_cast<double>(n));
    auto chol = Cholesky::Factor(a);
    ASSERT_TRUE(chol.ok());
    Vector rhs(n);
    for (auto& v : rhs) v = rng.NextGaussian();
    const Vector x = chol->Solve(rhs);
    const Vector ax = a * x;
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
  }
}

TEST(CholeskyTest, InverseDiagonalMatchesFullInverseBitwise) {
  humo::Rng rng(41);
  for (size_t threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    for (size_t n : {1, 2, 3, 9, 17, 64, 130}) {
      // An RBF Gram matrix with a noise diagonal: the LOO calibration's
      // matrix, and ill-conditioned enough that any reordering would show.
      std::vector<double> x(n);
      for (double& v : x) v = rng.NextDouble();
      Matrix a(n, n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          const double d = (x[i] - x[j]) / 0.2;
          a(i, j) = 0.25 * std::exp(-0.5 * d * d);
        }
        a(i, i) += 1e-6 + 1e-4 * rng.NextDouble();
      }
      auto chol = Cholesky::Factor(a);
      ASSERT_TRUE(chol.ok());
      const Vector diag = chol->InverseDiagonal();
      ASSERT_EQ(diag.size(), n);
      // The full inverse, one column solve at a time.
      for (size_t t = 0; t < n; ++t) {
        Vector e(n, 0.0);
        e[t] = 1.0;
        const double want = chol->Solve(e)[t];
        EXPECT_EQ(std::memcmp(&diag[t], &want, sizeof(double)), 0)
            << "threads=" << threads << " n=" << n << " t=" << t;
      }
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

}  // namespace
}  // namespace humo::linalg
