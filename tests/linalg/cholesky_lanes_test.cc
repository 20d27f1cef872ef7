#include "linalg/cholesky_lanes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"

namespace humo::linalg {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Serves four dense matrices and counts how often each lower-triangle
/// entry is requested.
class DenseLanes : public LaneMatrixSource {
 public:
  explicit DenseLanes(std::array<Matrix, 4> m)
      : m_(std::move(m)), requests_(m_[0].rows(), m_[0].rows()) {}

  void FillPanel(size_t j0, size_t width, double* out) const override {
    const size_t n = m_[0].rows();
    for (size_t i = j0; i < n; ++i) {
      for (size_t j = j0; j < j0 + width && j <= i; ++j) {
        requests_(i, j) += 1.0;
        double* slot = out + 4 * ((i - j0) * width + (j - j0));
        for (size_t q = 0; q < 4; ++q) slot[q] = m_[q](i, j);
      }
    }
  }

  const Matrix& lane(size_t q) const { return m_[q]; }
  const Matrix& requests() const { return requests_; }

 private:
  std::array<Matrix, 4> m_;
  mutable Matrix requests_;
};

/// B B^T + d I: symmetric positive definite for d > 0.
Matrix RandomSpd(size_t n, double d, Rng* rng) {
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) b(i, j) = rng->NextGaussian();
  Matrix a = b * b.Transpose();
  a.AddToDiagonal(d);
  return a;
}

/// RBF Gram matrix over sorted random inputs plus a noise diagonal — the
/// ill-conditioned shape grid selection factors.
Matrix RbfGram(size_t n, double sf2, double l, double noise, Rng* rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng->NextDouble();
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double d = (x[i] - x[j]) / l;
      a(i, j) = sf2 * std::exp(-0.5 * d * d);
    }
    a(i, i) += noise;
  }
  return a;
}

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->NextGaussian();
  return v;
}

/// Lane q of `lanes` against Cholesky::Factor/Solve/LogDeterminant on
/// `a`, bit for bit.
void ExpectLaneMatchesScalar(const CholeskyLanes& lanes, size_t q,
                             const Matrix& a, const std::vector<double>& b,
                             const std::vector<double>& x_lanes) {
  const size_t n = a.rows();
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  ASSERT_EQ(chol->jitter_used(), 0.0);
  const Cholesky lane = lanes.Lane(q);
  EXPECT_EQ(lane.jitter_used(), 0.0);
  for (size_t i = 0; i < n; ++i)
    for (size_t k = 0; k < n; ++k)
      ASSERT_TRUE(SameBits(lane.L()(i, k), chol->L()(i, k)))
          << "n=" << n << " lane " << q << " L(" << i << "," << k << ")";
  EXPECT_TRUE(SameBits(lanes.LogDeterminant(q), chol->LogDeterminant()))
      << "n=" << n << " lane " << q;
  const Vector x = chol->Solve(b);
  for (size_t i = 0; i < n; ++i)
    ASSERT_TRUE(SameBits(x_lanes[4 * i + q], x[i]))
        << "n=" << n << " lane " << q << " x[" << i << "]";
}

TEST(CholeskyLanesTest, EachLaneMatchesCholeskyBitwise) {
  Rng rng(7);
  for (size_t n : {1, 2, 3, 4, 5, 6, 7, 9, 15, 17, 33, 64, 65, 97, 222}) {
    const Matrix a0 = RandomSpd(n, 0.5, &rng);
    const Matrix a1 = RbfGram(n, 0.25, 0.2, 1e-6, &rng);
    const Matrix a2 = RbfGram(n, 1.0, 0.05, 1e-4, &rng);
    const Matrix a3 = RandomSpd(n, 1e-3, &rng);
    DenseLanes src({a0, a1, a2, a3});
    CholeskyLanes lanes;
    ASSERT_EQ(lanes.Factor(n, src), 0xFu) << "n=" << n;
    ASSERT_EQ(lanes.dim(), n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j <= i; ++j)
        ASSERT_EQ(src.requests()(i, j), 1.0)
            << "entry (" << i << "," << j << ") requested more than once";
    const std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> x(4 * n);
    lanes.Solve(b.data(), x.data());
    for (size_t q = 0; q < 4; ++q)
      ExpectLaneMatchesScalar(lanes, q, src.lane(q), b, x);
  }
}

TEST(CholeskyLanesTest, FailedLaneIsFlaggedAndOthersUnchanged) {
  Rng rng(11);
  for (size_t n : {1, 5, 8, 40, 101}) {
    const Matrix good0 = RandomSpd(n, 0.5, &rng);
    const Matrix good3 = RbfGram(n, 0.05, 0.1, 1e-5, &rng);
    // Lane 1: a negative pivot half way down (the row's diagonal is
    // pushed far below what the rows above it explain).
    Matrix negative = RandomSpd(n, 0.5, &rng);
    negative(n / 2, n / 2) = -1.0;
    // Lane 2: one NaN below the diagonal poisons a later pivot.
    Matrix nan = RandomSpd(n, 0.5, &rng);
    nan(n - 1, 0) = std::numeric_limits<double>::quiet_NaN();
    nan(0, n - 1) = nan(n - 1, 0);
    DenseLanes src({good0, negative, nan, good3});
    CholeskyLanes lanes;
    EXPECT_EQ(lanes.Factor(n, src), 0x9u) << "n=" << n;
    const std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> x(4 * n);
    lanes.Solve(b.data(), x.data());
    ExpectLaneMatchesScalar(lanes, 0, good0, b, x);
    ExpectLaneMatchesScalar(lanes, 3, good3, b, x);
  }
}

TEST(CholeskyLanesTest, EveryLaneFailing) {
  Matrix neg = Matrix::Identity(6);
  neg(0, 0) = -1.0;
  DenseLanes src({neg, neg, neg, neg});
  CholeskyLanes lanes;
  EXPECT_EQ(lanes.Factor(6, src), 0u);
}

/// Serves the identity to every lane and checks each panel request against
/// the panel-order helpers: panels arrive in order, each at PanelOffset,
/// and together they fill PanelOrderSize.
class PanelOrderProbe : public LaneMatrixSource {
 public:
  explicit PanelOrderProbe(size_t n) : n_(n) {}

  void FillPanel(size_t j0, size_t width, double* out) const override {
    EXPECT_EQ(j0, next_j0_) << "n=" << n_;
    EXPECT_EQ(width, std::min(CholeskyLanes::kBlock, n_ - j0)) << "n=" << n_;
    EXPECT_EQ(CholeskyLanes::PanelOffset(j0, n_), offset_) << "n=" << n_;
    for (size_t i = j0; i < n_; ++i)
      for (size_t j = j0; j < j0 + width; ++j)
        for (size_t q = 0; q < 4; ++q)
          out[4 * ((i - j0) * width + (j - j0)) + q] = i == j ? 1.0 : 0.0;
    next_j0_ = j0 + width;
    offset_ += (n_ - j0) * width;
  }

  size_t filled() const { return offset_; }

 private:
  size_t n_;
  mutable size_t next_j0_ = 0;
  mutable size_t offset_ = 0;
};

TEST(CholeskyLanesTest, PanelRequestsFollowPanelOrder) {
  for (size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 30, 64, 65}) {
    PanelOrderProbe probe(n);
    CholeskyLanes lanes;
    EXPECT_EQ(lanes.Factor(n, probe), 0xFu) << "n=" << n;
    EXPECT_EQ(probe.filled(), CholeskyLanes::PanelOrderSize(n)) << "n=" << n;
  }
}

TEST(CholeskyLanesTest, PortablePathMatchesDispatchedPathBitwise) {
  Rng rng(23);
  for (size_t n : {1, 3, 4, 6, 31, 64, 99, 222}) {
    Matrix negative = RandomSpd(n, 0.5, &rng);
    negative(n - 1, n - 1) = -2.0;
    const Matrix a0 = RbfGram(n, 0.25, 0.1, 1e-6, &rng);
    const Matrix a2 = RandomSpd(n, 1e-2, &rng);
    const Matrix a3 = RbfGram(n, 1.0, 0.5, 1e-8, &rng);
    DenseLanes src({a0, negative, a2, a3});
    CholeskyLanes dispatched, portable;
    const unsigned mask = dispatched.Factor(n, src);
    ASSERT_EQ(internal::FactorLanesPortable(&portable, n, src), mask)
        << "n=" << n;
    EXPECT_EQ(mask, 0xDu) << "n=" << n;
    const std::vector<double> b = RandomVector(n, &rng);
    std::vector<double> xd(4 * n), xp(4 * n);
    dispatched.Solve(b.data(), xd.data());
    internal::SolveLanesPortable(portable, b.data(), xp.data());
    for (size_t q : {0, 2, 3}) {
      const Cholesky ld = dispatched.Lane(q), lp = portable.Lane(q);
      for (size_t i = 0; i < n; ++i)
        for (size_t k = 0; k <= i; ++k)
          ASSERT_TRUE(SameBits(ld.L()(i, k), lp.L()(i, k)))
              << "n=" << n << " lane " << q;
      const double det_d = dispatched.LogDeterminant(q);
      const double det_p = portable.LogDeterminant(q);
      EXPECT_TRUE(SameBits(det_d, det_p)) << "n=" << n << " lane " << q;
      for (size_t i = 0; i < n; ++i)
        ASSERT_TRUE(SameBits(xd[4 * i + q], xp[4 * i + q]))
            << "n=" << n << " lane " << q;
    }
  }
}

}  // namespace
}  // namespace humo::linalg
