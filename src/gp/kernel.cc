#include "gp/kernel.h"

#include "common/thread_pool.h"

namespace humo::gp {
namespace {

/// Rows below this count are built inline: the fork/join handshake costs
/// more than the kernel evaluations it would distribute.
constexpr size_t kParallelRowGrain = 64;

/// k(r) for the family named by WithFamily's tag.
template <class FamilyTag>
double Eval(FamilyTag, double sf2, double l, double r) {
  const KernelShape s = FamilyShape<FamilyTag::value>(r, l);
  return (sf2 * s.poly) * s.env;
}

}  // namespace

Kernel::Kernel(KernelFamily family, double signal_variance,
               double length_scale)
    : family_(family), sf2_(signal_variance), l_(length_scale) {}

double Kernel::EvalDistance(double r) const {
  return WithFamily(family_, [&](auto f) { return Eval(f, sf2_, l_, r); });
}

void Kernel::FillRow(double x_star, const double* xs, size_t n,
                     double* out) const {
  WithFamily(family_, [&](auto f) {
    for (size_t i = 0; i < n; ++i) {
      const double r = x_star >= xs[i] ? x_star - xs[i] : xs[i] - x_star;
      out[i] = Eval(f, sf2_, l_, r);
    }
  });
}

linalg::Matrix Kernel::GramSymmetric(const std::vector<double>& xs) const {
  linalg::Matrix k(xs.size(), xs.size());
  // Each task owns rows [row_begin, row_end): it computes the lower
  // triangle of those rows and mirrors into the columns above the diagonal,
  // i.e. writes k(i, j) and k(j, i) for j <= i — cell (j, i) belongs to row
  // i's task alone (row j's task only writes columns <= j), so tasks never
  // overlap and the result matches the serial fill exactly.
  WithFamily(family_, [&](auto f) {
    ThreadPool::Global()->ParallelFor(
        xs.size(), kParallelRowGrain, [&](size_t row_begin, size_t row_end) {
          for (size_t i = row_begin; i < row_end; ++i) {
            for (size_t j = 0; j <= i; ++j) {
              const double r = xs[i] >= xs[j] ? xs[i] - xs[j] : xs[j] - xs[i];
              const double v = Eval(f, sf2_, l_, r);
              k(i, j) = v;
              k(j, i) = v;
            }
          }
        });
  });
  return k;
}

}  // namespace humo::gp
