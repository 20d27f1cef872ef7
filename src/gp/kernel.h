#pragma once

#include <cstddef>
#include <vector>

#include "gp/exp.h"
#include "linalg/matrix.h"

namespace humo::gp {

/// The signal-variance-free shape of the RBF kernel at distance r and
/// length scale l, env = Exp(-(r/l)^2 / 2): the kernel is k(r) = sf2 * env,
/// so a grid of signal variances sharing a length scale can compute the
/// shape once per pair and reproduce every candidate's Gram entries bit for
/// bit with one multiplication. ShapeRow writes the shapes of n distances
/// r[i] to env[i]; `env` may alias `r`. The envelopes run through ExpRow,
/// four lanes at a time; entry i is bit for bit the shape
/// Kernel::EvalDistance(r[i]) multiplies, so per-point and bulk paths agree.
void ShapeRow(const double* r, size_t n, double length_scale, double* env);

/// The RBF covariance function over scalar inputs (similarity values in
/// [0,1]) with its two hyperparameters, a plain copyable value. Its value
/// depends on x and y only through the distance |x - y|, and equals
/// sf2 * env of ShapeRow's shape at that distance.
class Kernel {
 public:
  Kernel(double signal_variance, double length_scale);

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
  double sf2_, l_;
};

}  // namespace humo::gp
