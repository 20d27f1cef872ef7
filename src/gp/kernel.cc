#include "gp/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace humo::gp {
namespace {

/// Rows below this count are built inline: the fork/join handshake costs
/// more than the kernel evaluations it would distribute.
constexpr size_t kParallelRowGrain = 64;

/// FillRow's chunk: its polynomial factors live on the stack.
constexpr size_t kRowChunk = 64;

/// A shape whose envelope is still in log form: env = Exp(log_env).
struct LogShape {
  double poly;
  double log_env;
};

/// Family F's polynomial factor and log envelope at distance r (see
/// ShapeRow's table).
template <KernelFamily F>
LogShape FamilyLogShape(double r, double length_scale) {
  const double d = r / length_scale;
  if constexpr (F == KernelFamily::kRbf) {
    return {1.0, -0.5 * d * d};
  } else if constexpr (F == KernelFamily::kMatern32) {
    const double a = std::sqrt(3.0) * d;
    return {1.0 + a, -a};
  } else {
    const double a = std::sqrt(5.0) * d;
    return {1.0 + a + 5.0 * d * d / 3.0, -a};
  }
}

/// k(r) for the family named by WithFamily's tag: (sf2 * poly) * env.
template <class FamilyTag>
double Eval(FamilyTag, double sf2, double l, double r) {
  const LogShape s = FamilyLogShape<FamilyTag::value>(r, l);
  return (sf2 * s.poly) * Exp(s.log_env);
}

/// |x - y|, exact in floating point and symmetric in its arguments.
double Distance(double x, double y) { return x >= y ? x - y : y - x; }

}  // namespace

void ShapeRow(KernelFamily family, const double* r, size_t n,
              double length_scale, double* poly, double* env) {
  WithFamily(family, [&](auto f) {
    constexpr KernelFamily kFamily = decltype(f)::value;
    for (size_t i = 0; i < n; ++i) {
      const LogShape s = FamilyLogShape<kFamily>(r[i], length_scale);
      if constexpr (kFamily != KernelFamily::kRbf) poly[i] = s.poly;
      env[i] = s.log_env;
    }
  });
  ExpRow(env, env, n);
}

Kernel::Kernel(KernelFamily family, double signal_variance,
               double length_scale)
    : family_(family), sf2_(signal_variance), l_(length_scale) {}

double Kernel::EvalDistance(double r) const {
  return WithFamily(family_, [&](auto f) { return Eval(f, sf2_, l_, r); });
}

void Kernel::FillRow(double x_star, const double* xs, size_t n,
                     double* out) const {
  double poly[kRowChunk];
  for (size_t i0 = 0; i0 < n; i0 += kRowChunk) {
    const size_t len = std::min(kRowChunk, n - i0);
    double* row = out + i0;
    for (size_t i = 0; i < len; ++i) row[i] = Distance(x_star, xs[i0 + i]);
    ShapeRow(family_, row, len, l_, poly, row);
    // Eval's (sf2 * poly) * env, with RBF's poly = 1.
    if (family_ == KernelFamily::kRbf) {
      for (size_t i = 0; i < len; ++i) row[i] = (sf2_ * 1.0) * row[i];
    } else {
      for (size_t i = 0; i < len; ++i) row[i] = (sf2_ * poly[i]) * row[i];
    }
  }
}

linalg::Matrix Kernel::GramSymmetric(const std::vector<double>& xs) const {
  linalg::Matrix k(xs.size(), xs.size());
  // Each task owns rows [row_begin, row_end): it fills the lower triangle
  // of those rows and mirrors into the columns above the diagonal, i.e.
  // writes k(i, j) and k(j, i) for j <= i — cell (j, i) belongs to row i's
  // task alone (row j's task only writes columns <= j), so tasks never
  // overlap and the result matches the serial fill exactly.
  ThreadPool::Global()->ParallelFor(
      xs.size(), kParallelRowGrain, [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          FillRow(xs[i], xs.data(), i + 1, k.RowPtr(i));
          for (size_t j = 0; j < i; ++j) k(j, i) = k(i, j);
        }
      });
  return k;
}

}  // namespace humo::gp
