#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#ifdef __SSE2__
#include <emmintrin.h>
#endif
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define HUMO_HAS_AVX2_DISPATCH 1
#endif

namespace humo::linalg {

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == rows[0].size());
    for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (size_t j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix& Matrix::AddToDiagonal(double x) {
  assert(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += x;
  return *this;
}

double Matrix::MaxAbsDiff(const Matrix& rhs) const {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  double mx = 0.0;
  for (size_t i = 0; i < data_.size(); ++i)
    mx = std::max(mx, std::fabs(data_[i] - rhs.data_[i]));
  return mx;
}

double Dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double DotRange(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double SubDotRange(double start, const double* a, const double* b, size_t n) {
  double acc = start;
  for (size_t i = 0; i < n; ++i) acc -= a[i] * b[i];
  return acc;
}

void SubDotRange4(const double start[4], const double* a, const double* b0,
                  const double* b1, const double* b2, const double* b3,
                  size_t n, double out[4]) {
  double acc0 = start[0], acc1 = start[1], acc2 = start[2], acc3 = start[3];
  for (size_t i = 0; i < n; ++i) {
    const double ai = a[i];
    acc0 -= ai * b0[i];
    acc1 -= ai * b1[i];
    acc2 -= ai * b2[i];
    acc3 -= ai * b3[i];
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

#ifdef HUMO_HAS_AVX2_DISPATCH
namespace {

/// 256-bit variant of the interleaved step, runtime-dispatched where the
/// CPU has AVX2. Only plain vmulpd/vsubpd/vdivpd are used — NEVER fused
/// multiply-add — and those round each lane exactly like their SSE2 and
/// scalar counterparts, so every machine computes the same bits; machines
/// differ only in how fast they get there.
template <int W>
__attribute__((target("avx2"))) void SubDotInterleavedStepAvx2(
    const double* a, size_t i, double pivot, double* buf) {
  constexpr int V = W / 4;
  __m256d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_pd(buf + i * W + 4 * v);
  for (size_t t = 0; t < i; ++t) {
    const __m256d at = _mm256_set1_pd(a[t]);
    const double* bt = buf + t * W;
    for (int v = 0; v < V; ++v)
      acc[v] =
          _mm256_sub_pd(acc[v], _mm256_mul_pd(at, _mm256_loadu_pd(bt + 4 * v)));
  }
  const __m256d piv = _mm256_set1_pd(pivot);
  for (int v = 0; v < V; ++v)
    _mm256_storeu_pd(buf + i * W + 4 * v, _mm256_div_pd(acc[v], piv));
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

}  // namespace
#endif  // HUMO_HAS_AVX2_DISPATCH

template <int W>
void SubDotInterleavedStep(const double* a, size_t i, double pivot,
                           double* buf) {
  static_assert(W == 4 || W == 8 || W == 16, "supported interleave widths");
#ifdef HUMO_HAS_AVX2_DISPATCH
  if (W >= 4 && CpuHasAvx2()) {
    SubDotInterleavedStepAvx2<W>(a, i, pivot, buf);
    return;
  }
#endif
#ifdef __SSE2__
  // Packed two-lane mul/sub/div round each lane exactly like the scalar
  // instructions, so this branch and the portable one below are
  // bit-identical; the packed form exists purely for throughput (the W
  // independent chains saturate the multiply/add ports that one chain's
  // latency-bound running subtraction leaves idle).
  constexpr int V = W / 2;
  __m128d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm_loadu_pd(buf + i * W + 2 * v);
  for (size_t t = 0; t < i; ++t) {
    const __m128d at = _mm_set1_pd(a[t]);
    const double* bt = buf + t * W;
    for (int v = 0; v < V; ++v)
      acc[v] = _mm_sub_pd(acc[v], _mm_mul_pd(at, _mm_loadu_pd(bt + 2 * v)));
  }
  const __m128d piv = _mm_set1_pd(pivot);
  for (int v = 0; v < V; ++v)
    _mm_storeu_pd(buf + i * W + 2 * v, _mm_div_pd(acc[v], piv));
#else
  double acc[W];
  for (int k = 0; k < W; ++k) acc[k] = buf[i * W + k];
  for (size_t t = 0; t < i; ++t) {
    const double at = a[t];
    for (int k = 0; k < W; ++k) acc[k] -= at * buf[t * W + k];
  }
  for (int k = 0; k < W; ++k) buf[i * W + k] = acc[k] / pivot;
#endif
}

template void SubDotInterleavedStep<4>(const double*, size_t, double, double*);
template void SubDotInterleavedStep<8>(const double*, size_t, double, double*);
template void SubDotInterleavedStep<16>(const double*, size_t, double,
                                        double*);

}  // namespace humo::linalg
