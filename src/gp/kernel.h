#pragma once

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "linalg/matrix.h"

namespace humo::gp {

/// The stationary kernel families the selector can instantiate.
enum class KernelFamily { kRbf, kMatern32, kMatern52 };

/// The signal-variance-free factors of a family's kernel at one distance and
/// length scale: every family evaluates k(r) as exactly (sf2 * poly) * env,
/// so a grid of signal variances sharing a length scale can compute the
/// shape once per pair and reproduce every candidate's Gram entries bit for
/// bit with two multiplications.
struct KernelShape {
  double poly;  // polynomial factor: 1 for RBF
  double env;   // exponential envelope
};

/// Family F's shape at distance r = |x - y| and length scale l:
///   RBF:        poly = 1,                         env = exp(-(r/l)^2 / 2)
///   Matérn 3/2: poly = 1 + √3 r/l,                env = exp(-√3 r/l)
///   Matérn 5/2: poly = 1 + √5 r/l + 5r^2/(3l^2),  env = exp(-√5 r/l)
template <KernelFamily F>
KernelShape FamilyShape(double r, double length_scale) {
  const double d = r / length_scale;
  if constexpr (F == KernelFamily::kRbf) {
    return {1.0, std::exp(-0.5 * d * d)};
  } else if constexpr (F == KernelFamily::kMatern32) {
    const double a = std::sqrt(3.0) * d;
    return {1.0 + a, std::exp(-a)};
  } else {
    const double a = std::sqrt(5.0) * d;
    return {1.0 + a + 5.0 * d * d / 3.0, std::exp(-a)};
  }
}

/// Calls fn(tag) with tag a std::integral_constant naming `family`, so a
/// loop inside fn binds its family statically: callers switch once per
/// row or matrix, never per entry.
template <class Fn>
decltype(auto) WithFamily(KernelFamily family, Fn&& fn) {
  using K = KernelFamily;
  switch (family) {
    case K::kMatern32:
      return fn(std::integral_constant<K, K::kMatern32>{});
    case K::kMatern52:
      return fn(std::integral_constant<K, K::kMatern52>{});
    case K::kRbf:
      break;
  }
  return fn(std::integral_constant<K, K::kRbf>{});
}

/// Covariance function over scalar inputs (similarity values in [0,1]): one
/// stationary family with its two hyperparameters, a plain copyable value.
/// Its value depends on x and y only through the distance |x - y|, and
/// equals (sf2 * poly) * env from FamilyShape at that distance.
class Kernel {
 public:
  Kernel(KernelFamily family, double signal_variance, double length_scale);

  KernelFamily family() const { return family_; }
  double signal_variance() const { return sf2_; }
  double length_scale() const { return l_; }

  /// k at distance r = |x - y|; r is non-negative.
  double EvalDistance(double r) const;

  /// k(x, y). |x - y| is exact in floating point, so k(x, y) and k(y, x)
  /// agree bit for bit.
  double operator()(double x, double y) const {
    return EvalDistance(x >= y ? x - y : y - x);
  }

  /// Fills out[i] = k(x_star, xs[i]) for i in [0, n) — the row every Gram
  /// build and prediction needs — with one family dispatch for the row.
  /// Entry i equals (*this)(x_star, xs[i]) bit for bit.
  void FillRow(double x_star, const double* xs, size_t n, double* out) const;

  /// Symmetric Gram matrix K(xs, xs); exploits symmetry.
  linalg::Matrix GramSymmetric(const std::vector<double>& xs) const;

 private:
  KernelFamily family_;
  double sf2_, l_;
};

}  // namespace humo::gp
