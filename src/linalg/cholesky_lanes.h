#pragma once

#include <cstddef>
#include <vector>

#include "linalg/cholesky.h"

namespace humo::linalg {

class CholeskyLanes;
class LaneMatrixSource;

namespace internal {

/// CholeskyLanes::Factor and Solve forced onto the baseline-ISA build of
/// their kernel, so tests can compare it bitwise with the build the public
/// entry points dispatch to (AVX2 where the CPU has it).
unsigned FactorLanesPortable(CholeskyLanes* lanes, size_t n,
                             const LaneMatrixSource& a);
void SolveLanesPortable(const CholeskyLanes& lanes, const double* b, double* x);

}  // namespace internal

/// Supplies the entries of the four n x n lane matrices CholeskyLanes
/// factors. The factor asks for each lower-triangle entry exactly once, one
/// column block's panel at a time just before it consumes it, so an
/// implementation can compute entries on demand instead of materializing
/// four matrices. The panels come in "panel order": column blocks
/// j0 = 0, kBlock, 2 kBlock, ... of width min(kBlock, n - j0), each covering
/// rows j0..n-1 (the factor stops early once every lane has failed).
/// CholeskyLanes::PanelOffset and PanelOrderSize locate each panel in a
/// buffer laid out that way, for sources that precompute one.
class LaneMatrixSource {
 public:
  virtual ~LaneMatrixSource() = default;

  /// Writes the panel of column block [j0, j0 + width): the lower-triangle
  /// entries (i, j), i in [j0, n), j in [j0, min(j0 + width, i + 1)), of all
  /// four lane matrices, lane-interleaved row by row:
  ///   out[4 * ((i - j0) * width + (j - j0)) + q] = A_q(i, j).
  /// Slots above the diagonal (j > i) are not read.
  virtual void FillPanel(size_t j0, size_t width, double* out) const = 0;
};

/// Four independent Cholesky factorizations A_q = L_q L_q^T (q = 0..3) run
/// in lock step, one per lane of a 4-wide double vector, with the solves and
/// log-determinants Gaussian-process model selection needs.
///
/// Layout: one packed, lane-interleaved lower triangle. Entry (i, k) of
/// lane q lives at double offset 4 * (i * (i + 1) / 2 + k) + q, so each
/// row is contiguous in k and each (i, k) is one 32-byte vector.
///
/// Bit contract: every lane performs exactly the scalar arithmetic of
/// Cholesky::Factor's first (jitter-free) attempt and of Cholesky::Solve —
/// each entry starts from A_q(i, k), subtracts its products in ascending k
/// (multiply, then subtract; never fused), and divides by the square root
/// of its pivot. Lanes never mix, so a lane whose pivot fails does not
/// disturb the other three, and a successful lane's factor, solve and
/// log-determinant are bit-identical to Cholesky::Factor / Solve /
/// LogDeterminant on that lane's matrix. The factor is register-blocked
/// (tiles of rows x four columns sharing each streamed operand), which
/// changes only which entries advance together, never any entry's order.
/// One object is not safe for concurrent use; give each thread its own.
class CholeskyLanes {
 public:
  static constexpr size_t kLanes = 4;
  /// Width of the column blocks the factor fills and eliminates together.
  static constexpr size_t kBlock = 4;

  /// Where the panel of the column block starting at `j0` (a multiple of
  /// kBlock) begins in panel order, counted in entries of one lane: the
  /// sum of the earlier panels' sizes.
  static size_t PanelOffset(size_t j0, size_t n);
  /// Entries of one lane in all of an n x n matrix's panels, panel order.
  static size_t PanelOrderSize(size_t n);

  /// Factors the four n x n matrices `a` supplies, reusing this object's
  /// storage. Returns a mask whose bit q is set when lane q factored: every
  /// pivot was positive and finite (the test Cholesky::Factor applies
  /// before it reaches for jitter). A cleared lane's factor is garbage.
  /// Runs the AVX2 build of the kernel when the CPU has it, else the
  /// baseline-ISA build of the same source; both give the same bits.
  unsigned Factor(size_t n, const LaneMatrixSource& a);

  /// Solves A_q x_q = b for every lane against one shared right-hand side
  /// `b` (n doubles); `x` receives 4n doubles lane-interleaved,
  /// x[4 * i + q] = (x_q)_i, each bit-identical to Cholesky::Solve.
  void Solve(const double* b, double* x) const;

  /// log(det(A_q)), summed exactly as Cholesky::LogDeterminant.
  double LogDeterminant(size_t lane) const;

  /// Lane q's factor as a Cholesky (jitter_used() == 0) — a dense copy.
  Cholesky Lane(size_t lane) const;

  size_t dim() const { return n_; }

 private:
  friend unsigned internal::FactorLanesPortable(CholeskyLanes*, size_t,
                                                const LaneMatrixSource&);
  friend void internal::SolveLanesPortable(const CholeskyLanes&, const double*,
                                           double*);

  unsigned FactorImpl(size_t n, const LaneMatrixSource& a, bool allow_avx2);
  void SolveImpl(const double* b, double* x, bool allow_avx2) const;

  // Left uninitialized on construction: Factor writes every slot it reads,
  // so growing the storage need not zero 32 bytes per entry.
  struct alignas(32) Lane4 {
    Lane4() {}  // user-provided: no value-initialization
    double v[kLanes];
  };

  size_t n_ = 0;
  std::vector<Lane4> l_;      // packed lane-interleaved lower triangle
  std::vector<Lane4> panel_;  // start values of one column block
};

}  // namespace humo::linalg
