#include "linalg/cholesky_lanes.h"

#include <cassert>
#include <cmath>

#if defined(__GNUC__) && defined(__x86_64__)
#define HUMO_HAS_AVX2_DISPATCH 1
#endif

namespace humo::linalg {
namespace {

/// Four doubles, one per lane. GCC/Clang vector extensions: every operator
/// is the per-lane IEEE operation (vmulpd/vsubpd/vdivpd under AVX2, two
/// SSE2 halves in the baseline build, scalar code elsewhere), and with
/// -ffp-contract=off a product is never fused into the subtraction that
/// consumes it. may_alias: the storage is also read as plain doubles;
/// aligned(8): solve vectors need not be 32-byte aligned.
typedef double V4 __attribute__((vector_size(32), may_alias, aligned(8)));

/// The algorithm bodies are written once and compiled twice: inlined into
/// an AVX2-targeted entry point and into a baseline-ISA one.
#define HUMO_LANES_INLINE inline __attribute__((always_inline))

/// Column-block width of the factor and row-tile height of the panel
/// below it: each step in k loads kRows + kCols operands for kRows * kCols
/// independent lane chains. 3 x 4 ran fastest of 2..4 x 2..4 at
/// n = 128..300 on a 4-vCPU AMD EPYC.
constexpr size_t kCols = CholeskyLanes::kBlock;
constexpr size_t kRows = 3;

HUMO_LANES_INLINE size_t RowStart(size_t i) { return i * (i + 1) / 2; }

/// Diagonal block of the column block [j0, j0 + C): rows j0..j0+C-1,
/// columns j0..row. Entry (i, j) = (A(i, j) - sum_{k<j} L(j,k) L(i,k)) /
/// L(j, j), and the pivot A(i, i) - sum_{k<i} L(i,k)^2 on the diagonal —
/// every chain in ascending k. The k < j0 prefix of all C(C+1)/2 chains
/// runs as one register tile; the short in-block suffix then runs row by
/// row, column by column, which is the order its dependencies allow.
/// Clears the bit of every lane whose pivot is non-positive or non-finite.
template <int C>
HUMO_LANES_INLINE void DiagonalBlock(V4* l, size_t j0, const V4* start,
                                     unsigned* ok) {
  V4* li[C];
  for (int r = 0; r < C; ++r) li[r] = l + RowStart(j0 + r);
  V4 acc[C][C];
  for (int r = 0; r < C; ++r)
    for (int c = 0; c <= r; ++c) acc[r][c] = start[r * C + c];
  for (size_t k = 0; k < j0; ++k) {
    V4 v[C];
    for (int r = 0; r < C; ++r) v[r] = li[r][k];
    for (int r = 0; r < C; ++r)
      for (int c = 0; c <= r; ++c) acc[r][c] -= v[c] * v[r];
  }
  for (int r = 0; r < C; ++r) {
    for (int c = 0; c <= r; ++c) {
      for (int t = 0; t < c; ++t) acc[r][c] -= li[c][j0 + t] * li[r][j0 + t];
      if (c < r) {
        li[r][j0 + c] = acc[r][c] / li[c][j0 + c];
        continue;
      }
      V4 root = acc[r][r];
      for (size_t q = 0; q < CholeskyLanes::kLanes; ++q) {
        const double pivot = acc[r][r][q];
        if (pivot <= 0.0 || !std::isfinite(pivot)) *ok &= ~(1u << q);
        root[q] = std::sqrt(pivot);
      }
      li[r][j0 + r] = root;
    }
  }
}

/// Panel tile below the diagonal block: rows i0..i0+R-1, columns
/// j0..j0+C-1, starting from `start` (R rows of C lane vectors). The
/// k < j0 prefix shares each loaded L(i, k) across C chains and each
/// L(j, k) across R; the in-block suffix k = j0..j-1 uses the tile's own
/// fresh entries.
template <int R, int C>
HUMO_LANES_INLINE void PanelTile(V4* l, size_t i0, size_t j0, const V4* start) {
  V4* li[R];
  const V4* lj[C];
  for (int r = 0; r < R; ++r) li[r] = l + RowStart(i0 + r);
  for (int c = 0; c < C; ++c) lj[c] = l + RowStart(j0 + c);
  V4 acc[R][C];
  for (int r = 0; r < R; ++r)
    for (int c = 0; c < C; ++c) acc[r][c] = start[r * C + c];
  for (size_t k = 0; k < j0; ++k) {
    V4 b[C];
    for (int c = 0; c < C; ++c) b[c] = lj[c][k];
    for (int r = 0; r < R; ++r) {
      const V4 a = li[r][k];
      for (int c = 0; c < C; ++c) acc[r][c] -= b[c] * a;
    }
  }
  for (int c = 0; c < C; ++c) {
    for (int r = 0; r < R; ++r) {
      for (int t = 0; t < c; ++t) acc[r][c] -= lj[c][j0 + t] * li[r][j0 + t];
      li[r][j0 + c] = acc[r][c] / lj[c][j0 + c];
    }
  }
}

/// One column block [j0, j0 + C): fetch its panel of start values (rows
/// j0..n-1) into `panel`, factor its diagonal block, then solve the panel
/// below it kRows rows at a time.
template <int C>
HUMO_LANES_INLINE void ColumnBlock(V4* l, size_t n, size_t j0,
                                   const LaneMatrixSource& a, V4* panel,
                                   unsigned* ok) {
  a.FillPanel(j0, C, reinterpret_cast<double*>(panel));
  DiagonalBlock<C>(l, j0, panel, ok);
  size_t i = j0 + C;
  for (; i + kRows <= n; i += kRows)
    PanelTile<kRows, C>(l, i, j0, panel + (i - j0) * C);
  for (; i < n; ++i) PanelTile<1, C>(l, i, j0, panel + (i - j0) * C);
}

HUMO_LANES_INLINE unsigned FactorBody(V4* l, size_t n,
                                      const LaneMatrixSource& a, V4* panel) {
  unsigned ok = (1u << CholeskyLanes::kLanes) - 1;
  size_t j0 = 0;
  for (; j0 + kCols <= n && ok != 0; j0 += kCols)
    ColumnBlock<kCols>(l, n, j0, a, panel, &ok);
  if (ok == 0) return 0;
  static_assert(kCols == 4, "the tail switch covers widths 1..3");
  switch (n - j0) {
    case 3:
      ColumnBlock<3>(l, n, j0, a, panel, &ok);
      break;
    case 2:
      ColumnBlock<2>(l, n, j0, a, panel, &ok);
      break;
    case 1:
      ColumnBlock<1>(l, n, j0, a, panel, &ok);
      break;
    default:
      break;
  }
  return ok;
}

/// Forward substitution L y = b, then back substitution L^T x = y, in place
/// in `x`: Cholesky::SolveLower's and Solve's expressions per lane.
HUMO_LANES_INLINE void SolveBody(const V4* l, size_t n, const double* b,
                                 V4* x) {
  for (size_t i = 0; i < n; ++i) {
    const V4* li = l + RowStart(i);
    V4 acc = {b[i], b[i], b[i], b[i]};
    for (size_t k = 0; k < i; ++k) acc -= li[k] * x[k];
    x[i] = acc / li[i];
  }
  for (size_t ii = n; ii-- > 0;) {
    V4 sum = x[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l[RowStart(k) + ii] * x[k];
    x[ii] = sum / l[RowStart(ii) + ii];
  }
}

unsigned FactorPortable(V4* l, size_t n, const LaneMatrixSource& a, V4* panel) {
  return FactorBody(l, n, a, panel);
}

void SolvePortable(const V4* l, size_t n, const double* b, V4* x) {
  SolveBody(l, n, b, x);
}

#ifdef HUMO_HAS_AVX2_DISPATCH
// AVX2 but never FMA: the target adds 256-bit mul/sub/div only, which round
// each lane exactly like the baseline build's instructions.
__attribute__((target("avx2"))) unsigned FactorAvx2(
    V4* l, size_t n, const LaneMatrixSource& a, V4* panel) {
  return FactorBody(l, n, a, panel);
}

__attribute__((target("avx2"))) void SolveAvx2(const V4* l, size_t n,
                                               const double* b, V4* x) {
  SolveBody(l, n, b, x);
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif  // HUMO_HAS_AVX2_DISPATCH

}  // namespace

size_t CholeskyLanes::PanelOffset(size_t j0, size_t n) {
  assert(j0 % kBlock == 0 && j0 <= n);
  // Block b' < b = j0 / kBlock is full width with rows kBlock b' .. n - 1.
  const size_t b = j0 / kBlock;
  return kBlock * (b * n - kBlock * ((b * b - b) / 2));
}

size_t CholeskyLanes::PanelOrderSize(size_t n) {
  // Full-width blocks, then a last block of width w = n mod kBlock whose
  // panel is its w x w diagonal block.
  const size_t w = n % kBlock;
  return PanelOffset(n - w, n) + w * w;
}

unsigned CholeskyLanes::Factor(size_t n, const LaneMatrixSource& a) {
  return FactorImpl(n, a, /*allow_avx2=*/true);
}

void CholeskyLanes::Solve(const double* b, double* x) const {
  SolveImpl(b, x, /*allow_avx2=*/true);
}

unsigned CholeskyLanes::FactorImpl(size_t n, const LaneMatrixSource& a,
                                   bool allow_avx2) {
  n_ = n;
  l_.resize(RowStart(n));
  panel_.resize(n * kCols);
  V4* l = reinterpret_cast<V4*>(l_.data());
  V4* panel = reinterpret_cast<V4*>(panel_.data());
#ifdef HUMO_HAS_AVX2_DISPATCH
  if (allow_avx2 && CpuHasAvx2()) return FactorAvx2(l, n, a, panel);
#endif
  (void)allow_avx2;
  return FactorPortable(l, n, a, panel);
}

void CholeskyLanes::SolveImpl(const double* b, double* x,
                              bool allow_avx2) const {
  const V4* l = reinterpret_cast<const V4*>(l_.data());
  V4* xv = reinterpret_cast<V4*>(x);
#ifdef HUMO_HAS_AVX2_DISPATCH
  if (allow_avx2 && CpuHasAvx2()) return SolveAvx2(l, n_, b, xv);
#endif
  (void)allow_avx2;
  SolvePortable(l, n_, b, xv);
}

double CholeskyLanes::LogDeterminant(size_t lane) const {
  assert(lane < kLanes);
  double acc = 0.0;
  for (size_t i = 0; i < n_; ++i) acc += std::log(l_[RowStart(i) + i].v[lane]);
  return 2.0 * acc;
}

Cholesky CholeskyLanes::Lane(size_t lane) const {
  assert(lane < kLanes);
  Cholesky chol;
  chol.l_ = Matrix(n_, n_);
  for (size_t i = 0; i < n_; ++i) {
    const Lane4* row = l_.data() + RowStart(i);
    double* dst = chol.l_.RowPtr(i);
    for (size_t k = 0; k <= i; ++k) dst[k] = row[k].v[lane];
  }
  return chol;
}

namespace internal {

unsigned FactorLanesPortable(CholeskyLanes* lanes, size_t n,
                             const LaneMatrixSource& a) {
  return lanes->FactorImpl(n, a, /*allow_avx2=*/false);
}

void SolveLanesPortable(const CholeskyLanes& lanes, const double* b,
                        double* x) {
  lanes.SolveImpl(b, x, /*allow_avx2=*/false);
}

}  // namespace internal

}  // namespace humo::linalg
