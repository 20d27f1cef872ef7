#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace humo::linalg {
namespace {

/// Property sweep behind the GP warm-start append path: on random SPD
/// matrices of many shapes, extending a factor with Cholesky::Extended must
/// reproduce the from-scratch factorization of the bordered matrix BIT FOR
/// BIT (both land on zero jitter for these well-conditioned inputs). A few
/// hundred seeded cases per property; any failure prints its (n, k, seed)
/// cell.
Matrix RandomSpd(size_t n, uint64_t seed, double diag) {
  Rng rng(seed);
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) b(i, j) = rng.NextDouble(-1.0, 1.0);
  Matrix a = b * b.Transpose();
  a.AddToDiagonal(diag);
  return a;
}

Matrix LeadingBlock(const Matrix& a, size_t n) {
  Matrix lead(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) lead(i, j) = a(i, j);
  return lead;
}

Matrix TrailingRows(const Matrix& a, size_t k) {
  const size_t n = a.rows();
  Matrix rows(k, n);
  for (size_t i = 0; i < k; ++i)
    for (size_t c = 0; c < n; ++c) rows(i, c) = a(n - k + i, c);
  return rows;
}

struct AppendCase {
  size_t n;  // leading block factored first
  size_t k;  // appended rows
};

class CholeskyAppendPropertyTest
    : public ::testing::TestWithParam<AppendCase> {};

TEST_P(CholeskyAppendPropertyTest, AppendBitIdenticalToFactor) {
  const auto [n, k] = GetParam();
  for (uint64_t seed = 0; seed < 25; ++seed) {
    const Matrix ext = RandomSpd(n + k, 1000 * n + 10 * k + seed, 1.0);
    auto lead = Cholesky::Factor(LeadingBlock(ext, n));
    ASSERT_TRUE(lead.ok()) << "n=" << n << " seed=" << seed;
    auto incremental = lead->Extended(TrailingRows(ext, k));
    ASSERT_TRUE(incremental.ok())
        << "n=" << n << " k=" << k << " seed=" << seed;

    auto scratch = Cholesky::Factor(ext);
    ASSERT_TRUE(scratch.ok());
    ASSERT_EQ(incremental->L().rows(), n + k);
    ASSERT_EQ(incremental->jitter_used(), scratch->jitter_used());
    for (size_t i = 0; i < n + k; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        ASSERT_EQ(incremental->L()(i, j), scratch->L()(i, j))
            << "n=" << n << " k=" << k << " seed=" << seed << " L(" << i
            << "," << j << ")";
      }
    }
    ASSERT_EQ(incremental->LogDeterminant(), scratch->LogDeterminant());
  }
}

TEST_P(CholeskyAppendPropertyTest, ExtendedLeavesOriginalUntouched) {
  const auto [n, k] = GetParam();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Matrix ext = RandomSpd(n + k, 77 * n + 3 * k + seed, 1.0);
    auto base = Cholesky::Factor(LeadingBlock(ext, n));
    ASSERT_TRUE(base.ok());
    const Matrix before = base->L();
    auto extended = base->Extended(TrailingRows(ext, k));
    ASSERT_TRUE(extended.ok()) << "n=" << n << " k=" << k << " seed=" << seed;
    // The source factor is untouched...
    ASSERT_EQ(base->L().rows(), n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j <= i; ++j)
        ASSERT_EQ(base->L()(i, j), before(i, j));
    // ...and the extension equals the from-scratch factorization.
    auto scratch = Cholesky::Factor(ext);
    ASSERT_TRUE(scratch.ok());
    for (size_t i = 0; i < n + k; ++i)
      for (size_t j = 0; j <= i; ++j)
        ASSERT_EQ(extended->L()(i, j), scratch->L()(i, j))
            << "n=" << n << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CholeskyAppendPropertyTest,
    ::testing::Values(AppendCase{1, 1}, AppendCase{2, 1}, AppendCase{3, 2},
                      AppendCase{5, 1}, AppendCase{5, 5}, AppendCase{8, 3},
                      AppendCase{12, 4}, AppendCase{16, 1}, AppendCase{16, 8},
                      AppendCase{24, 6}, AppendCase{32, 2},
                      AppendCase{32, 16}),
    [](const ::testing::TestParamInfo<AppendCase>& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(CholeskySolvePropertyTest, SolveInvertsMultiplication) {
  // Random solves stay consistent with the factored matrix: A (A^-1 b) = b.
  Rng rng(5);
  for (int rep = 0; rep < 100; ++rep) {
    const size_t n = 1 + rng.NextBelow(20);
    const Matrix a = RandomSpd(n, 900 + static_cast<uint64_t>(rep), 2.0);
    auto chol = Cholesky::Factor(a);
    ASSERT_TRUE(chol.ok());
    Vector b(n);
    for (size_t i = 0; i < n; ++i) b[i] = rng.NextDouble(-3.0, 3.0);
    const Vector x = chol->Solve(b);
    const Vector back = a * x;
    for (size_t i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], b[i], 1e-8) << "rep " << rep << " i " << i;
  }
}

}  // namespace
}  // namespace humo::linalg
