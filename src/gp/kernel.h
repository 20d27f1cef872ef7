#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace humo::gp {

/// Covariance function over scalar inputs (similarity values in [0,1]).
///
/// Every kernel in this library is stationary in one dimension — its value
/// depends on x and y only through the distance |x - y| — so the interface
/// is EvalDistance(|x - y|). The families below also expose that function
/// split into a signal-variance-free shape (KernelShape), which lets the
/// hyperparameter grid pay the n^2 exponentials once per length scale
/// instead of once per candidate.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// k at distance r = |x - y|; r is non-negative.
  virtual double EvalDistance(double r) const = 0;

  /// k(x, y). Non-virtual: |x - y| is exact in floating point, so routing
  /// through EvalDistance is bit-identical to the historical direct forms.
  double operator()(double x, double y) const {
    return EvalDistance(x >= y ? x - y : y - x);
  }

  /// Human-readable description, e.g. "RBF(sf2=1, l=0.1)".
  virtual std::string ToString() const = 0;

  virtual std::unique_ptr<Kernel> Clone() const = 0;

  /// Fills out[i] = k(x_star, xs[i]) for i in [0, n) — the row every Gram
  /// build and prediction needs. The base implementation dispatches
  /// per-entry; the stationary kernels override it with the identical
  /// expressions statically bound (one virtual call per ROW instead of per
  /// entry), so values are the same either way and only the dispatch cost
  /// changes.
  virtual void FillRow(double x_star, const double* xs, size_t n,
                       double* out) const;

  /// Gram matrix K(xs, ys).
  linalg::Matrix Gram(const std::vector<double>& xs,
                      const std::vector<double>& ys) const;

  /// Symmetric Gram matrix K(xs, xs); exploits symmetry.
  linalg::Matrix GramSymmetric(const std::vector<double>& xs) const;
};

/// The signal-variance-free factors of a stationary family's kernel at one
/// distance and length scale: each family below evaluates EvalDistance(r)
/// as exactly (sf2 * poly) * env from its Shape(r, l), so a grid of signal
/// variances sharing a length scale can compute the shape once per pair
/// and reproduce every candidate's Gram entries bit for bit with two
/// multiplications.
struct KernelShape {
  double poly;  // polynomial factor: 1 for RBF
  double env;   // exponential envelope
};

/// Squared-exponential (RBF): sf2 * exp(-(x-y)^2 / (2 l^2)).
class RbfKernel : public Kernel {
 public:
  RbfKernel(double signal_variance, double length_scale);
  double EvalDistance(double r) const override;
  /// poly = 1, env = exp(-(r/l)^2 / 2).
  static KernelShape Shape(double r, double length_scale);
  void FillRow(double x_star, const double* xs, size_t n,
               double* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Kernel> Clone() const override;
  double signal_variance() const { return sf2_; }
  double length_scale() const { return l_; }

 private:
  double sf2_, l_;
};

/// Matérn ν=3/2: sf2 * (1 + √3 r/l) exp(-√3 r/l).
class Matern32Kernel : public Kernel {
 public:
  Matern32Kernel(double signal_variance, double length_scale);
  double EvalDistance(double r) const override;
  /// poly = 1 + sqrt(3) r/l, env = exp(-sqrt(3) r/l).
  static KernelShape Shape(double r, double length_scale);
  void FillRow(double x_star, const double* xs, size_t n,
               double* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Kernel> Clone() const override;

 private:
  double sf2_, l_;
};

/// Matérn ν=5/2: sf2 * (1 + √5 r/l + 5r²/(3l²)) exp(-√5 r/l).
class Matern52Kernel : public Kernel {
 public:
  Matern52Kernel(double signal_variance, double length_scale);
  double EvalDistance(double r) const override;
  /// poly = 1 + sqrt(5) r/l + 5r^2/(3l^2), env = exp(-sqrt(5) r/l).
  static KernelShape Shape(double r, double length_scale);
  void FillRow(double x_star, const double* xs, size_t n,
               double* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Kernel> Clone() const override;

 private:
  double sf2_, l_;
};

/// Constant kernel: c (models a global offset's variance).
class ConstantKernel : public Kernel {
 public:
  explicit ConstantKernel(double c);
  double EvalDistance(double r) const override;
  std::string ToString() const override;
  std::unique_ptr<Kernel> Clone() const override;

 private:
  double c_;
};

/// Sum of two kernels.
class SumKernel : public Kernel {
 public:
  SumKernel(std::unique_ptr<Kernel> a, std::unique_ptr<Kernel> b);
  double EvalDistance(double r) const override;
  std::string ToString() const override;
  std::unique_ptr<Kernel> Clone() const override;

 private:
  std::unique_ptr<Kernel> a_, b_;
};

}  // namespace humo::gp
