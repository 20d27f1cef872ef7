#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace humo::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles, sized for the Gaussian-process use
/// case in this library (tens to a few hundred rows). Still no BLAS
/// dependency, but no longer naive serial code: the factor and solve hot
/// paths run the contiguous-row dot-product kernels below (DotRange /
/// SubDotRange / SubDotRange4) and the layers above them (Gram
/// construction, Cholesky column updates, batched prediction) parallelize
/// over the process-global ThreadPool.
///
/// Layout contract the kernels rely on: storage is a single contiguous
/// row-major buffer. Row r occupies elements [r*cols(), (r+1)*cols()) of
/// that buffer, so RowPtr(r) points at cols() consecutive doubles and
/// RowPtr(r) + c aliases operator()(r, c). Rows carry no padding and no
/// alignment guarantee beyond double's; any operation that reshapes the
/// matrix invalidates row pointers.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer data (row-major); all rows must have the
  /// same length.
  static Matrix FromRows(const std::vector<Vector>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Pointer to the first element of row r (see the layout contract above):
  /// cols() consecutive doubles, valid until the matrix is reshaped.
  const double* RowPtr(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  double* RowPtr(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  Matrix Transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  Vector operator*(const Vector& v) const;
  Matrix& AddToDiagonal(double x);

  /// Max absolute element difference; matrices must be the same shape.
  double MaxAbsDiff(const Matrix& rhs) const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// v . w
double Dot(const Vector& a, const Vector& b);

/// Contiguous-range dot product: sum of a[i]*b[i] for i in [0, n),
/// accumulated into a single accumulator in strictly ascending index order —
/// the same order as Dot, so the two are interchangeable bit-for-bit. Both
/// operands must point at n consecutive doubles (Matrix::RowPtr rows or
/// Vector::data()). Deliberately compiled once in matrix.cc rather than
/// inlined: every caller shares one code path, so results cannot drift
/// between call sites through differing contraction or vectorization.
double DotRange(const double* a, const double* b, size_t n);

/// Running-subtraction kernel of the Cholesky elimination:
///   start - a[0]*b[0] - a[1]*b[1] - ... - a[n-1]*b[n-1]
/// evaluated as a chain of subtractions in ascending index order — the exact
/// expression and order of the historical serial elimination, NOT
/// start - DotRange(a, b, n) (one final subtraction rounds differently).
double SubDotRange(double start, const double* a, const double* b, size_t n);

/// Four SubDotRange chains sharing the left operand `a`:
///   out[j] = start[j] - a[0]*b[j][0] - ... - a[n-1]*b[j][n-1]
/// Each chain is accumulated independently in ascending order, so out[j] is
/// bit-identical to SubDotRange(start[j], a, b[j], n); the point of the
/// kernel is throughput — four independent floating-point dependency chains
/// overlap in the FPU pipeline where one chain is latency-bound, and the
/// shared row `a` is streamed through cache once instead of four times.
/// This is the block kernel behind the Cholesky column update.
void SubDotRange4(const double start[4], const double* a, const double* b0,
                  const double* b1, const double* b2, const double* b3,
                  size_t n, double out[4]);

/// W-lane interleaved forward-substitution step used by
/// Cholesky::SolveLowerRows: given `buf` holding W right-hand-side/solution
/// chains interleaved (buf[t*W + k] is chain k's element t, chains final for
/// t < i), computes for every chain k
///   buf[i*W+k] = (buf[i*W+k] - a[0]*buf[0*W+k] - ... - a[i-1]*buf[(i-1)*W+k])
///                / pivot
/// with each chain accumulated independently in ascending t — bit-identical
/// to SubDotRange followed by one division. On x86-64 the lanes map onto
/// packed SSE2 mul/sub/div, whose per-lane rounding is the scalar ops'
/// exactly; elsewhere a scalar loop computes the same thing. W must be one
/// of 4, 8, 16.
template <int W>
void SubDotInterleavedStep(const double* a, size_t i, double pivot,
                           double* buf);

}  // namespace humo::linalg
