#include "gp/kernel.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace humo::gp {
namespace {

/// Rows below this count are built inline: the fork/join handshake costs
/// more than the kernel evaluations it would distribute.
constexpr size_t kParallelRowGrain = 64;

}  // namespace

void Kernel::FillRow(double x_star, const double* xs, size_t n,
                     double* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = (*this)(x_star, xs[i]);
}

linalg::Matrix Kernel::Gram(const std::vector<double>& xs,
                            const std::vector<double>& ys) const {
  linalg::Matrix k(xs.size(), ys.size());
  // Rows are independent and each entry is written exactly once, so the
  // parallel build is bit-identical to the serial one at any thread count.
  ThreadPool::Global()->ParallelFor(
      xs.size(), kParallelRowGrain, [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i)
          FillRow(xs[i], ys.data(), ys.size(), k.RowPtr(i));
      });
  return k;
}

linalg::Matrix Kernel::GramSymmetric(const std::vector<double>& xs) const {
  linalg::Matrix k(xs.size(), xs.size());
  // Each task owns rows [row_begin, row_end): it computes the lower
  // triangle of those rows and mirrors into the columns above the diagonal,
  // i.e. writes k(i, j) and k(j, i) for j <= i — cell (j, i) belongs to row
  // i's task alone (row j's task only writes columns <= j), so tasks never
  // overlap and the result matches the serial fill exactly.
  ThreadPool::Global()->ParallelFor(
      xs.size(), kParallelRowGrain, [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          for (size_t j = 0; j <= i; ++j) {
            const double v = (*this)(xs[i], xs[j]);
            k(i, j) = v;
            k(j, i) = v;
          }
        }
      });
  return k;
}

RbfKernel::RbfKernel(double signal_variance, double length_scale)
    : sf2_(signal_variance), l_(length_scale) {
  assert(sf2_ > 0.0 && l_ > 0.0);
}

KernelShape RbfKernel::Shape(double r, double length_scale) {
  const double d = r / length_scale;
  return {1.0, std::exp(-0.5 * d * d)};
}

double RbfKernel::EvalDistance(double r) const {
  const KernelShape s = Shape(r, l_);
  return (sf2_ * s.poly) * s.env;
}

void RbfKernel::FillRow(double x_star, const double* xs, size_t n,
                        double* out) const {
  // Statically-bound form of the base-class loop: same |x - y| and the same
  // EvalDistance expression per entry, minus the per-entry virtual dispatch.
  for (size_t i = 0; i < n; ++i) {
    const double r = x_star >= xs[i] ? x_star - xs[i] : xs[i] - x_star;
    out[i] = RbfKernel::EvalDistance(r);
  }
}

std::string RbfKernel::ToString() const {
  return StrFormat("RBF(sf2=%.4g, l=%.4g)", sf2_, l_);
}

std::unique_ptr<Kernel> RbfKernel::Clone() const {
  return std::make_unique<RbfKernel>(sf2_, l_);
}

Matern32Kernel::Matern32Kernel(double signal_variance, double length_scale)
    : sf2_(signal_variance), l_(length_scale) {
  assert(sf2_ > 0.0 && l_ > 0.0);
}

KernelShape Matern32Kernel::Shape(double dist, double length_scale) {
  const double r = dist / length_scale;
  const double a = std::sqrt(3.0) * r;
  return {1.0 + a, std::exp(-a)};
}

double Matern32Kernel::EvalDistance(double dist) const {
  const KernelShape s = Shape(dist, l_);
  return (sf2_ * s.poly) * s.env;
}

void Matern32Kernel::FillRow(double x_star, const double* xs, size_t n,
                             double* out) const {
  for (size_t i = 0; i < n; ++i) {
    const double r = x_star >= xs[i] ? x_star - xs[i] : xs[i] - x_star;
    out[i] = Matern32Kernel::EvalDistance(r);
  }
}

std::string Matern32Kernel::ToString() const {
  return StrFormat("Matern32(sf2=%.4g, l=%.4g)", sf2_, l_);
}

std::unique_ptr<Kernel> Matern32Kernel::Clone() const {
  return std::make_unique<Matern32Kernel>(sf2_, l_);
}

Matern52Kernel::Matern52Kernel(double signal_variance, double length_scale)
    : sf2_(signal_variance), l_(length_scale) {
  assert(sf2_ > 0.0 && l_ > 0.0);
}

KernelShape Matern52Kernel::Shape(double dist, double length_scale) {
  const double r = dist / length_scale;
  const double a = std::sqrt(5.0) * r;
  return {1.0 + a + 5.0 * r * r / 3.0, std::exp(-a)};
}

double Matern52Kernel::EvalDistance(double dist) const {
  const KernelShape s = Shape(dist, l_);
  return (sf2_ * s.poly) * s.env;
}

void Matern52Kernel::FillRow(double x_star, const double* xs, size_t n,
                             double* out) const {
  for (size_t i = 0; i < n; ++i) {
    const double r = x_star >= xs[i] ? x_star - xs[i] : xs[i] - x_star;
    out[i] = Matern52Kernel::EvalDistance(r);
  }
}

std::string Matern52Kernel::ToString() const {
  return StrFormat("Matern52(sf2=%.4g, l=%.4g)", sf2_, l_);
}

std::unique_ptr<Kernel> Matern52Kernel::Clone() const {
  return std::make_unique<Matern52Kernel>(sf2_, l_);
}

ConstantKernel::ConstantKernel(double c) : c_(c) { assert(c_ >= 0.0); }

double ConstantKernel::EvalDistance(double) const { return c_; }

std::string ConstantKernel::ToString() const {
  return StrFormat("Const(%.4g)", c_);
}

std::unique_ptr<Kernel> ConstantKernel::Clone() const {
  return std::make_unique<ConstantKernel>(c_);
}

SumKernel::SumKernel(std::unique_ptr<Kernel> a, std::unique_ptr<Kernel> b)
    : a_(std::move(a)), b_(std::move(b)) {
  assert(a_ && b_);
}

double SumKernel::EvalDistance(double r) const {
  return a_->EvalDistance(r) + b_->EvalDistance(r);
}

std::string SumKernel::ToString() const {
  return a_->ToString() + " + " + b_->ToString();
}

std::unique_ptr<Kernel> SumKernel::Clone() const {
  return std::make_unique<SumKernel>(a_->Clone(), b_->Clone());
}

}  // namespace humo::gp
