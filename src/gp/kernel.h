#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "gp/exp.h"
#include "linalg/matrix.h"

namespace humo::gp {

/// The stationary kernel families the selector can instantiate.
enum class KernelFamily { kRbf, kMatern32, kMatern52 };

/// The signal-variance-free factors of a family's kernel at distance r and
/// length scale l: every family evaluates k(r) as exactly (sf2 * poly) * env,
///   RBF:        poly = 1,                         env = Exp(-(r/l)^2 / 2)
///   Matérn 3/2: poly = 1 + √3 r/l,                env = Exp(-√3 r/l)
///   Matérn 5/2: poly = 1 + √5 r/l + 5r^2/(3l^2),  env = Exp(-√5 r/l)
/// so a grid of signal variances sharing a length scale can compute the
/// shape once per pair and reproduce every candidate's Gram entries bit for
/// bit with two multiplications. ShapeRow writes the shapes of n distances
/// r[i]: env[i], and poly[i] for the families other than RBF (RBF leaves
/// `poly` untouched; it may be null). `env` may alias `r`. The envelopes
/// run through ExpRow, four lanes at a time; entry i is bit for bit the
/// shape Kernel::EvalDistance(r[i]) multiplies, so per-point and bulk paths
/// agree.
void ShapeRow(KernelFamily family, const double* r, size_t n,
              double length_scale, double* poly, double* env);

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
/// equals (sf2 * poly) * env of ShapeRow's shape at that distance.
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
  /// build and prediction needs — with the envelopes evaluated four lanes
  /// at a time (ShapeRow). Entry i equals (*this)(x_star, xs[i]) bit for
  /// bit, whatever n and wherever the row starts.
  void FillRow(double x_star, const double* xs, size_t n, double* out) const;

  /// Symmetric Gram matrix K(xs, xs): row i's lower triangle from FillRow,
  /// mirrored above the diagonal.
  linalg::Matrix GramSymmetric(const std::vector<double>& xs) const;

 private:
  KernelFamily family_;
  double sf2_, l_;
};

}  // namespace humo::gp
