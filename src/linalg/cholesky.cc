#include "linalg/cholesky.h"

#include <cmath>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace humo::linalg {
namespace {

/// Matrices below this order factor inline; the per-column fork/join would
/// dominate the arithmetic it distributes.
constexpr size_t kParallelFactorMinDim = 96;
/// Rows per task in the below-diagonal column update.
constexpr size_t kParallelFactorGrain = 32;

/// Attempts a plain Cholesky factorization; returns false on a non-positive
/// pivot.
///
/// Left-looking column order: after the pivot l(j,j) is fixed, every entry
/// l(i,j) below it depends only on already-final columns 0..j-1, so the
/// column update is embarrassingly parallel. Each entry is computed with
/// the exact expression and summation order of the serial elimination
/// (ascending k), making the factor bit-identical at any thread count —
/// and to the historical row-major implementation.
bool TryFactor(const Matrix& a, Matrix* l) {
  const size_t n = a.rows();
  *l = Matrix(n, n);
  const bool parallel = n >= kParallelFactorMinDim;
  for (size_t j = 0; j < n; ++j) {
    // A non-finite column update surfaces here on a later pivot, exactly as
    // in the serial elimination.
    const double pivot = SubDotRange(a(j, j), l->RowPtr(j), l->RowPtr(j), j);
    if (pivot <= 0.0 || !std::isfinite(pivot)) return false;
    const double ljj = std::sqrt(pivot);
    (*l)(j, j) = ljj;
    const double* lj = l->RowPtr(j);
    auto update_rows = [l, &a, j, ljj, lj](size_t begin, size_t end) {
      // Below-diagonal rows in blocks of four: each row's running
      // subtraction is the serial elimination's exact chain, and the four
      // independent chains share the streamed pivot row lj (SubDotRange4).
      size_t i = j + 1 + begin;
      const size_t stop = j + 1 + end;
      for (; i + 4 <= stop; i += 4) {
        const double start[4] = {a(i, j), a(i + 1, j), a(i + 2, j),
                                 a(i + 3, j)};
        double out[4];
        SubDotRange4(start, lj, l->RowPtr(i), l->RowPtr(i + 1),
                     l->RowPtr(i + 2), l->RowPtr(i + 3), j, out);
        (*l)(i, j) = out[0] / ljj;
        (*l)(i + 1, j) = out[1] / ljj;
        (*l)(i + 2, j) = out[2] / ljj;
        (*l)(i + 3, j) = out[3] / ljj;
      }
      for (; i < stop; ++i)
        (*l)(i, j) = SubDotRange(a(i, j), lj, l->RowPtr(i), j) / ljj;
    };
    if (parallel) {
      ThreadPool::Global()->ParallelFor(n - j - 1, kParallelFactorGrain,
                                        update_rows);
    } else {
      update_rows(0, n - j - 1);
    }
  }
  return true;
}

}  // namespace

Result<Cholesky> Cholesky::Factor(const Matrix& a, double initial_jitter,
                                  double max_jitter) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument(
        StrFormat("Cholesky requires a square matrix, got %zux%zu", a.rows(),
                  a.cols()));
  Cholesky chol;
  if (TryFactor(a, &chol.l_)) return chol;
  for (double jitter = initial_jitter; jitter <= max_jitter; jitter *= 10.0) {
    Matrix aj = a;
    aj.AddToDiagonal(jitter);
    if (TryFactor(aj, &chol.l_)) {
      chol.jitter_used_ = jitter;
      return chol;
    }
  }
  return Status::Internal(
      "matrix is not positive definite even with maximum jitter");
}

Result<Cholesky> Cholesky::Extended(const Matrix& rows) const {
  const size_t n = l_.rows();
  const size_t k = rows.rows();
  if (rows.cols() != n + k && k != 0)
    return Status::InvalidArgument(
        StrFormat("Extended rows must be %zux%zu, got %zux%zu", k, n + k,
                  rows.rows(), rows.cols()));
  Cholesky out;
  out.jitter_used_ = jitter_used_;
  out.l_ = Matrix(n + k, n + k);
  for (size_t r = 0; r < n; ++r) {
    const double* src = l_.RowPtr(r);
    double* dst = out.l_.RowPtr(r);
    for (size_t c = 0; c <= r; ++c) dst[c] = src[c];
  }
  for (size_t i = 0; i < k; ++i) {
    const size_t r = n + i;
    double* lr = out.l_.RowPtr(r);
    // Same left-looking expressions TryFactor evaluates for row r of the
    // bordered matrix, against the frozen factor block — so on success the
    // extended factor is bit-identical to factoring from scratch.
    for (size_t j = 0; j < r; ++j)
      lr[j] = SubDotRange(rows(i, j), out.l_.RowPtr(j), lr, j) / out.l_(j, j);
    const double pivot = SubDotRange(rows(i, r) + jitter_used_, lr, lr, r);
    if (pivot <= 0.0 || !std::isfinite(pivot))
      return Status::Internal(StrFormat(
          "appended row %zu is not positive definite at jitter %g; refactor "
          "from scratch",
          r, jitter_used_));
    lr[r] = std::sqrt(pivot);
  }
  return out;
}

Vector Cholesky::SolveLower(const Vector& b) const {
  const size_t n = l_.rows();
  assert(b.size() == n);
  Vector y(n);
  for (size_t i = 0; i < n; ++i)
    y[i] = SubDotRange(b[i], l_.RowPtr(i), y.data(), i) / l_(i, i);
  return y;
}

Matrix Cholesky::SolveLowerRows(const Matrix& rhs_rows) const {
  const size_t n = l_.rows();
  assert(rhs_rows.cols() == n);
  const size_t q = rhs_rows.rows();
  Matrix y = rhs_rows;  // blocked rows are overwritten with their solutions
  if (q == 0 || n == 0) return y;

  // Right-hand sides are solved in interleaved blocks: a block of W chains
  // lives in one n x W scratch where row t holds element t of every chain,
  // so the W independent running subtractions advance in lock step through
  // packed lanes (SubDotInterleavedStep) while each chain keeps the exact
  // scalar SolveLower arithmetic. The decomposition — as many 16-wide
  // blocks as fit, then one 8-wide, one 4-wide, and a scalar tail — is
  // fixed by q alone, and only whole blocks are handed to the pool, so the
  // result is bit-identical at any thread count.
  // Transposes run chain-outer so the q x n side is touched sequentially;
  // the strided side is the n x W scratch, which stays L1-resident.
  auto solve_block = [&](size_t base, auto wtag, double* buf) {
    constexpr int kW = decltype(wtag)::value;
    for (int k = 0; k < kW; ++k) {
      const double* row = y.RowPtr(base + k);
      for (size_t t = 0; t < n; ++t) buf[t * kW + k] = row[t];
    }
    for (size_t i = 0; i < n; ++i)
      SubDotInterleavedStep<kW>(l_.RowPtr(i), i, l_(i, i), buf);
    for (int k = 0; k < kW; ++k) {
      double* row = y.RowPtr(base + k);
      for (size_t t = 0; t < n; ++t) row[t] = buf[t * kW + k];
    }
  };

  const size_t blocks16 = q / 16;
  if (blocks16 > 0) {
    // Per-task scratch (one block's worth, n x 16): small enough to come
    // from the allocator's fast path, and tasks write disjoint rows of y.
    ThreadPool::Global()->ParallelFor(
        blocks16, /*grain=*/1, [&](size_t blk_begin, size_t blk_end) {
          std::unique_ptr<double[]> scratch(new double[n * 16]);
          for (size_t blk = blk_begin; blk < blk_end; ++blk) {
            solve_block(blk * 16, std::integral_constant<int, 16>{},
                        scratch.get());
          }
        });
  }
  size_t done = blocks16 * 16;
  std::vector<double> tail_buf(n * 8);
  if (q - done >= 8) {
    solve_block(done, std::integral_constant<int, 8>{}, tail_buf.data());
    done += 8;
  }
  if (q - done >= 4) {
    solve_block(done, std::integral_constant<int, 4>{}, tail_buf.data());
    done += 4;
  }
  for (size_t r = done; r < q; ++r) {
    double* row = y.RowPtr(r);
    for (size_t i = 0; i < n; ++i)
      row[i] = SubDotRange(row[i], l_.RowPtr(i), row, i) / l_(i, i);
  }
  return y;
}

Vector Cholesky::Solve(const Vector& b) const {
  const size_t n = l_.rows();
  Vector y = SolveLower(b);
  // Back substitution with L^T.
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l_(k, ii) * x[k];
    x[ii] = sum / l_(ii, ii);
  }
  return x;
}

Vector Cholesky::InverseDiagonal() const {
  const size_t n = l_.rows();
  Vector diag(n);
  ThreadPool::Global()->ParallelFor(
      n, /*grain=*/8, [&](size_t t_begin, size_t t_end) {
        Vector y(n), x(n);
        for (size_t t = t_begin; t < t_end; ++t) {
          // Forward substitution of e_t from row t on (y[0..t) would be +0).
          y[t] = 1.0 / l_(t, t);
          for (size_t i = t + 1; i < n; ++i) {
            const double* li = l_.RowPtr(i);
            y[i] = SubDotRange(0.0, li + t, y.data() + t, i - t) / l_(i, i);
          }
          // Back substitution down to row t, as Solve writes it.
          for (size_t ii = n; ii-- > t;) {
            double sum = y[ii];
            for (size_t k = ii + 1; k < n; ++k) sum -= l_(k, ii) * x[k];
            x[ii] = sum / l_(ii, ii);
          }
          diag[t] = x[t];
        }
      });
  return diag;
}

double Cholesky::LogDeterminant() const {
  double acc = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace humo::linalg
