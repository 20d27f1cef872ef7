#pragma once

#include <utility>
#include <vector>

#include "common/result.h"
#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace humo::gp {

/// Posterior of a single query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
  /// sqrt(max(0, variance)) — guards the tiny negative roundoff residue.
  double stddev() const;
};

/// Joint posterior over a set of query points: per-point means and the full
/// posterior covariance K(V*,V*) - K(V*,V) K(V,V)^-1 K(V,V*) (paper Eq. 20
/// needs the off-diagonal terms when aggregating subset match counts).
struct JointPrediction {
  std::vector<double> mean;
  linalg::Matrix covariance;

  /// Std-dev of the weighted total: sqrt(sum_ij n_i n_j cov_ij) (Eq. 20).
  double WeightedTotalStdDev(const std::vector<double>& weights) const;
};

/// Options controlling GP fitting.
struct GpOptions {
  /// Homoscedastic observation-noise variance added to the training
  /// diagonal; per-point noise can additionally be supplied to Fit.
  double noise_variance = 1e-4;
  /// Subtract the training-mean before fitting and add it back at
  /// prediction (a constant mean function; keeps the zero-mean GP assumption
  /// honest for proportions that hover near 0.5).
  bool center_mean = true;
};

/// Candidate hyperparameter grid entry for SelectGpByMarginalLikelihood.
struct GpCandidate {
  double signal_variance;
  double length_scale;
};

/// Gaussian-process regression over scalar inputs.
///
/// This implements §VI-B of the paper: the match proportions of unit subsets
/// are modeled as a joint Gaussian in their (average) similarity values,
/// the posterior supplies both interpolated proportions (Eq. 16-17) and the
/// covariance needed to bound totals over subset unions (Eq. 19-21). A
/// fitted model is a plain value: copies are independent and equal.
class GpRegression {
 public:
  /// Fits the GP. `noise_variances`, when non-empty, must parallel `x` and
  /// adds heteroscedastic per-observation noise (sampling variance of each
  /// observed proportion) to the training diagonal. Mismatched or empty
  /// x/y, noise_variances of the wrong length, a non-finite x, y or noise
  /// value, and a kernel whose signal variance or length scale is not
  /// positive and finite are InvalidArgument.
  static Result<GpRegression> Fit(Kernel kernel, std::vector<double> x,
                                  std::vector<double> y,
                                  GpOptions options = {},
                                  std::vector<double> noise_variances = {});

  /// Returns a model refitted on this model's training set extended by
  /// (x_new, y_new, noise_variances_new), reusing the existing Cholesky
  /// factor through a rank-k append (O(n^2 k) instead of the O(n^3)
  /// from-scratch refactor; kernel hyperparameters are kept). The appended
  /// rows use the factor's original jitter, so the result is bit-identical
  /// to Fit on the concatenated training set whenever that fit lands on
  /// the same jitter (and within factorization roundoff otherwise). When
  /// the append hits a non-positive pivot an error is returned and the
  /// caller must fall back to a full Fit.
  Result<GpRegression> ExtendedWith(
      const std::vector<double>& x_new, const std::vector<double>& y_new,
      const std::vector<double>& noise_variances_new = {}) const;

  /// Posterior mean/variance at one query point.
  Prediction Predict(double x_star) const;

  /// Posterior means/variances at many query points: one K(V*, V) build
  /// plus one blocked multi-right-hand-side triangular solve for the whole
  /// batch (Cholesky::SolveLowerRows) instead of a per-point solve each.
  /// Entry i is bit-identical to Predict(x_star[i]) at any thread count.
  /// When `whitened` is non-null it receives the q x n matrix whose row i is
  /// the whitened cross vector L^-1 k(V, x*_i) the solve produces (what
  /// WhitenedCross returns per point) — GpSubsetModel consumes both in one
  /// pass. When `cross` is non-null it receives K(V*, V), row i = k(V, x*_i).
  std::vector<Prediction> PredictBatch(const std::vector<double>& x_star,
                                       linalg::Matrix* whitened = nullptr,
                                       linalg::Matrix* cross = nullptr) const;

  /// One query's rows of PredictBatch: the cross-covariance k(V, x*) and
  /// the whitened cross vector L^-1 k(V, x*), one entry per training point
  /// the rows cover (a prefix of the model's training set).
  struct QueryRows {
    linalg::Vector cross, whitened;
  };

  /// Brings `rows` of x_star up to this model's training set. The rows must
  /// be empty or hold PredictBatch's rows of x_star on a model this one
  /// extends by appended training points (a chain of ExtendedWith calls:
  /// that model's training points and factor rows are a prefix of this
  /// one's). Each missing training point adds one kernel entry and one
  /// forward-substitution entry, O(n), so the rows equal this model's
  /// PredictBatch rows of x_star bit for bit.
  void ExtendRows(double x_star, QueryRows* rows) const;

  /// The posterior at x_star from its rows on this model (see ExtendRows):
  /// PredictBatch's entry for x_star, bit for bit, in O(n).
  Prediction PredictFromRows(double x_star, const QueryRows& rows) const;

  /// Joint posterior over many query points.
  JointPrediction PredictJoint(const std::vector<double>& x_star) const;

  /// Log marginal likelihood of the training data under the fitted kernel;
  /// used for hyperparameter selection.
  double LogMarginalLikelihood() const;

  /// Whitened cross-covariance w(x*) = L^-1 k(V, x*). The posterior
  /// covariance of two query points decomposes as
  ///   cov(a, b) = k(a, b) - w(a).w(b),
  /// which lets range aggregations (Eq. 20) be maintained incrementally in
  /// O(len(V)) per update instead of re-solving per query set.
  linalg::Vector WhitenedCross(double x_star) const;

  /// The fitted kernel (hyperparameters as selected at Fit time).
  const Kernel& kernel() const { return kernel_; }

  /// Diagonal jitter the factorization needed (0 when none; see
  /// linalg::Cholesky::Factor).
  double jitter_used() const { return chol_.jitter_used(); }

  /// Number of training observations the posterior conditions on.
  size_t num_training_points() const { return x_.size(); }

 private:
  // Builds only the winning candidate's model, from its lane factor.
  friend Result<GpRegression> SelectGpByMarginalLikelihood(
      const std::vector<double>& x, const std::vector<double>& y,
      const std::vector<GpCandidate>& grid, KernelFamily family,
      GpOptions options, std::vector<double> noise_variances);

  GpRegression(Kernel kernel, GpOptions options, std::vector<double> x,
               std::vector<double> y)
      : kernel_(kernel),
        options_(options),
        x_(std::move(x)),
        y_(std::move(y)) {}

  /// Recomputes mean/centering, alpha, and the log marginal likelihood from
  /// x_/y_/chol_ — the shared tail of Fit and ExtendedWith.
  void FinishFit();

  /// The posterior mean from a query's n-entry cross row, and its variance
  /// (clamped at 0) from its whitened row: the shared tails of Predict,
  /// PredictBatch and PredictFromRows.
  double Mean(const double* cross) const;
  double Variance(double x_star, const double* whitened) const;

  Kernel kernel_;
  GpOptions options_;
  std::vector<double> x_;
  std::vector<double> y_;  // original observations (ExtendedWith re-centers)
  std::vector<double> y_centered_;
  double y_mean_ = 0.0;
  linalg::Cholesky chol_;
  linalg::Vector alpha_;  // K^-1 (y - mean)
  double log_marginal_ = 0.0;
};

/// Fits one GP per candidate on a small grid and returns the one with the
/// highest log marginal likelihood (simple, derivative-free model selection;
/// adequate for 1-D inputs); the first candidate in grid order wins a tie.
/// The result is bit-identical to fitting every candidate with
/// GpRegression::Fit and keeping the first strict improvement, at any thread
/// count. How it gets there:
///   - each distinct length scale's kernel shape (ShapeRow) is computed
///     once per pair of inputs; a candidate's Gram entries are then two
///     multiplications, (sf2 * poly) * env, plus the noise diagonal;
///   - candidates are factored and solved four at a time, one per lane of
///     linalg::CholeskyLanes, with the shapes filled in column block by
///     column block rather than as n x n Gram matrices; lane groups are the
///     thread-pool unit;
///   - only the best factor so far is kept, and only the winner becomes a
///     GpRegression;
///   - a candidate whose lane hits a non-positive pivot is refit alone with
///     GpRegression::Fit, whose jitter escalation may rescue it.
/// Inputs are validated up front: mismatched or empty x/y, noise_variances
/// of the wrong length, a non-finite x, y or noise value, and a grid entry
/// whose signal variance or length scale is not positive and finite are
/// InvalidArgument. Internal means no candidate factored even with jitter.
Result<GpRegression> SelectGpByMarginalLikelihood(
    const std::vector<double>& x, const std::vector<double>& y,
    const std::vector<GpCandidate>& grid, KernelFamily family,
    GpOptions options = {}, std::vector<double> noise_variances = {});

/// A sensible default grid for similarity inputs in [0,1].
std::vector<GpCandidate> DefaultGpGrid();

/// DefaultGpGrid() restricted to length scales of at least 1.5x the largest
/// gap between adjacent training inputs (`xs` in any order; a sorted copy is
/// taken). A shorter scale would interpolate the training points perfectly
/// yet predict at full prior variance inside every gap — useless exactly
/// where no evidence is. When every stock scale is below the threshold, a
/// small fallback grid proportional to the gap itself is returned. Used by
/// the SAMP certification fit.
std::vector<GpCandidate> GapGuardedGrid(const std::vector<double>& xs);

}  // namespace humo::gp
