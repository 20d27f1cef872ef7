#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/cholesky.h"

namespace humo::linalg {
namespace {

/// Random SPD matrix B B^T + d I with a fixed seed.
Matrix RandomSpd(size_t n, uint64_t seed, double diag = 1.0) {
  Rng rng(seed);
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) b(i, j) = rng.NextDouble(-1.0, 1.0);
  Matrix a = b * b.Transpose();
  a.AddToDiagonal(diag);
  return a;
}

/// The k trailing rows of `a` in the layout Extended consumes: k x n, row i =
/// row (n-k+i) of `a` (entries past the diagonal are present but ignored).
Matrix TrailingRows(const Matrix& a, size_t k) {
  const size_t n = a.rows();
  Matrix rows(k, n);
  for (size_t i = 0; i < k; ++i)
    for (size_t c = 0; c < n; ++c) rows(i, c) = a(n - k + i, c);
  return rows;
}

TEST(CholeskyAppendTest, AppendEqualsFactorOnExtendedMatrix) {
  const size_t n = 9, k = 3;
  const Matrix ext = RandomSpd(n + k, 42);
  // Factor the leading principal block, then extend by the trailing rows.
  Matrix lead(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) lead(i, j) = ext(i, j);
  auto base = Cholesky::Factor(lead);
  ASSERT_TRUE(base.ok());
  auto chol = base->Extended(TrailingRows(ext, k));
  ASSERT_TRUE(chol.ok());

  auto full = Cholesky::Factor(ext);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(chol->L().rows(), n + k);
  for (size_t i = 0; i < n + k; ++i)
    for (size_t j = 0; j <= i; ++j)
      EXPECT_EQ(chol->L()(i, j), full->L()(i, j))
          << "L(" << i << "," << j << ")";  // bitwise, not NEAR
  EXPECT_EQ(chol->LogDeterminant(), full->LogDeterminant());
}

TEST(CholeskyAppendTest, RepeatedRankOneAppendsMatchOneFactorization) {
  const size_t n0 = 4, total = 12;
  const Matrix ext = RandomSpd(total, 7);
  Matrix lead(n0, n0);
  for (size_t i = 0; i < n0; ++i)
    for (size_t j = 0; j < n0; ++j) lead(i, j) = ext(i, j);
  auto chol = Cholesky::Factor(lead);
  ASSERT_TRUE(chol.ok());
  for (size_t n = n0; n < total; ++n) {
    Matrix row(1, n + 1);
    for (size_t c = 0; c <= n; ++c) row(0, c) = ext(n, c);
    auto next = chol->Extended(row);
    ASSERT_TRUE(next.ok()) << "append at n=" << n;
    *chol = std::move(*next);
  }
  auto full = Cholesky::Factor(ext);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(chol->L().MaxAbsDiff(full->L()), 0.0);
}

TEST(CholeskyAppendTest, SolvesAgreeAfterAppend) {
  const size_t n = 61, k = 2;  // n > parallel threshold not needed; odd size
  const Matrix ext = RandomSpd(n + k, 3);
  Matrix lead(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) lead(i, j) = ext(i, j);
  auto base = Cholesky::Factor(lead);
  ASSERT_TRUE(base.ok());
  auto chol = base->Extended(TrailingRows(ext, k));
  ASSERT_TRUE(chol.ok());
  Vector b(n + k);
  Rng rng(11);
  for (double& v : b) v = rng.NextDouble(-2.0, 2.0);
  const Vector x = chol->Solve(b);
  const Vector ax = ext * x;
  for (size_t i = 0; i < n + k; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(CholeskyAppendTest, JitterCarriesIntoAppendedDiagonal) {
  // Singular PSD matrix (rank 1): Factor must escalate jitter.
  const size_t n = 3;
  Matrix a(n, n);
  const double v[n] = {1.0, 2.0, 3.0};
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) a(i, j) = v[i] * v[j];
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  ASSERT_GT(chol->jitter_used(), 0.0);
  const double jitter = chol->jitter_used();

  // Extend by a row consistent with the rank structure (cross-covariances
  // in span(v), ample diagonal — the shape a kernel matrix extension has);
  // Extended adds the SAME jitter to the new diagonal, matching Factor of
  // the uniformly jittered extension.
  Matrix ext(n + 1, n + 1);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) ext(i, j) = a(i, j);
  for (size_t j = 0; j < n; ++j) ext(n, j) = ext(j, n) = 0.5 * v[j];
  ext(n, n) = 5.0;
  Matrix row(1, n + 1);
  for (size_t c = 0; c <= n; ++c) row(0, c) = ext(n, c);
  auto extended = chol->Extended(row);
  ASSERT_TRUE(extended.ok());

  Matrix jittered = ext;
  jittered.AddToDiagonal(jitter);
  // Plain TryFactor of the jittered matrix (no ladder): reconstructing
  // through L L^T must reproduce it.
  const Matrix recon = extended->L() * extended->L().Transpose();
  EXPECT_LT(recon.MaxAbsDiff(jittered), 1e-9);
}

TEST(CholeskyAppendTest, RejectsNonPositiveDefiniteExtension) {
  const Matrix a = Matrix::Identity(3);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  // Row 3 duplicates row 0 => extended matrix is singular (pivot 0).
  Matrix row(1, 4);
  row(0, 0) = 1.0;
  row(0, 3) = 1.0;
  EXPECT_FALSE(chol->Extended(row).ok());
  // The factor is untouched and still usable.
  EXPECT_EQ(chol->L().rows(), 3u);
  const Vector b = {1.0, 2.0, 3.0};
  const Vector x = chol->Solve(b);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(CholeskyAppendTest, RejectsWrongRowShape) {
  auto chol = Cholesky::Factor(Matrix::Identity(3));
  ASSERT_TRUE(chol.ok());
  EXPECT_FALSE(chol->Extended(Matrix(2, 4)).ok());  // needs 2 x 5

  // An empty extension is a copy.
  auto same = chol->Extended(Matrix(0, 0));
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->L().rows(), 3u);
}

TEST(CholeskyAppendTest, SolveLowerRowsMatchesPerRowSolveBitwise) {
  const size_t n = 33;
  const Matrix a = RandomSpd(n, 19);
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  const size_t q = 11;  // exercises both the blocked path and the remainder
  Matrix rhs(q, n);
  Rng rng(23);
  for (size_t r = 0; r < q; ++r)
    for (size_t c = 0; c < n; ++c) rhs(r, c) = rng.NextDouble(-1.0, 1.0);
  const Matrix sol = chol->SolveLowerRows(rhs);
  for (size_t r = 0; r < q; ++r) {
    Vector b(n);
    for (size_t c = 0; c < n; ++c) b[c] = rhs(r, c);
    const Vector y = chol->SolveLower(b);
    for (size_t c = 0; c < n; ++c)
      EXPECT_EQ(sol(r, c), y[c]) << "row " << r << " col " << c;
  }
}

}  // namespace
}  // namespace humo::linalg
