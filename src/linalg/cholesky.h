#pragma once

#include "common/result.h"
#include "linalg/matrix.h"

namespace humo::linalg {

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix,
/// with the solves needed by Gaussian-process regression.
class Cholesky {
 public:
  /// Creates an empty (unfactored) object; using Solve on it is invalid.
  /// Exists so owning classes can default-construct and assign later.
  Cholesky() = default;

  /// Factors `a`. When factorization hits a non-positive pivot, jitter
  /// (starting at 1e-10, escalating x10 up to 1e-2) is added to the
  /// diagonal and factorization is retried — the standard GP stabilization
  /// for nearly singular kernel matrices.
  static Result<Cholesky> Factor(const Matrix& a);

  /// Rank-k extension of the factor when new observations arrive: given
  /// this factor of the n x n matrix A, returns the factor of the bordered
  /// matrix A' = [[A, B^T], [B, C]] in O(n^2 k) instead of the O(n^3)
  /// from-scratch refactor, leaving this one untouched. `rows` is
  /// k x (n+k); its row i holds row n+i of A' up to and including the
  /// diagonal (columns beyond n+i are ignored). Each new factor row is
  /// computed with the exact expression and summation order of the serial
  /// elimination, and jitter_used() is added to every new diagonal entry,
  /// so on success the factor is bit-identical to Factor(A') whenever
  /// Factor(A') lands on the same jitter. When a new pivot is non-positive
  /// an error is returned — jitter cannot be added retroactively to the
  /// already-frozen block, so the caller must refactor from scratch.
  /// Exactly one (n+k)^2 allocation+copy is made (the frozen block is
  /// written straight into the extended matrix).
  Result<Cholesky> Extended(const Matrix& rows) const;

  /// Solves A x = b via forward+back substitution.
  Vector Solve(const Vector& b) const;

  /// Solves L y = b (forward substitution only).
  Vector SolveLower(const Vector& b) const;

  /// Multi-right-hand-side forward substitution: solves L y = rhs for every
  /// ROW of `rhs_rows` (q x n, one right-hand side per row) and returns the
  /// q x n matrix whose row j is the solution for row j, solved in place in
  /// the argument's storage (move a matrix in to avoid a copy). Row j is computed
  /// with the exact arithmetic of SolveLower on that row — bit-identical at
  /// any thread count — but rows are processed in blocks of four whose
  /// independent accumulator chains overlap in the FPU pipeline
  /// (SubDotRange4) and share each streamed L row, which is where batched
  /// prediction gets its single-core speedup.
  Matrix SolveLowerRows(Matrix rhs_rows) const;

  /// Diagonal of A^-1, entry t bit-identical to Solve(e_t)[t]:
  /// column t's forward substitution starts at row t (the rows above it
  /// solve to exact +0 against the zero right-hand side, and subtracting
  /// their zero products leaves every later chain's bits unchanged) and its
  /// back substitution stops at row t. Sum over t of (n - t)^2 multiply-
  /// subtracts, a third of the full inverse's n^3. Columns are independent
  /// and fan out over the thread pool; the result does not depend on the
  /// thread count.
  Vector InverseDiagonal() const;

  /// log(det(A)) = 2 * sum(log(L_ii)); cheap once factored.
  double LogDeterminant() const;

  /// The lower-triangular factor.
  const Matrix& L() const { return l_; }

  /// Jitter that had to be added to the diagonal (0 when none).
  double jitter_used() const { return jitter_used_; }

 private:
  friend class CholeskyLanes;  // hands out a lane's factor (Lane)

  Matrix l_;
  double jitter_used_ = 0.0;
};

}  // namespace humo::linalg
