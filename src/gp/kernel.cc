#include "gp/kernel.h"

#include "common/thread_pool.h"

namespace humo::gp {
namespace {

/// Rows below this count are built inline: the fork/join handshake costs
/// more than the kernel evaluations it would distribute.
constexpr size_t kParallelRowGrain = 64;

/// The RBF shape's exponent at distance r: env = Exp(LogShape(r, l)).
double LogShape(double r, double length_scale) {
  const double d = r / length_scale;
  return -0.5 * d * d;
}

/// |x - y|, exact in floating point and symmetric in its arguments.
double Distance(double x, double y) { return x >= y ? x - y : y - x; }

}  // namespace

void ShapeRow(const double* r, size_t n, double length_scale, double* env) {
  for (size_t i = 0; i < n; ++i) env[i] = LogShape(r[i], length_scale);
  ExpRow(env, env, n);
}

Kernel::Kernel(double signal_variance, double length_scale)
    : sf2_(signal_variance), l_(length_scale) {}

double Kernel::EvalDistance(double r) const {
  return sf2_ * Exp(LogShape(r, l_));
}

void Kernel::FillRow(double x_star, const double* xs, size_t n,
                     double* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = Distance(x_star, xs[i]);
  ShapeRow(out, n, l_, out);
  for (size_t i = 0; i < n; ++i) out[i] = sf2_ * out[i];
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
