#include "gp/gp_regression.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "linalg/cholesky_lanes.h"

namespace humo::gp {
namespace {

constexpr double kLog2Pi = 1.8378770664093454835606594728112;

/// The GP's constant mean function: the targets' average, subtracted before
/// fitting and added back at prediction (keeps the zero-mean GP assumption
/// honest for proportions that hover near 0.5). Fit and the grid selector
/// share it, so both factor against the same centered targets.
double TargetMean(const std::vector<double>& y) {
  double mean = 0.0;
  for (double v : y) mean += v;
  return mean / static_cast<double>(y.size());
}

/// log p(y) = -y^T K^-1 y / 2 - log|K| / 2 - n log(2 pi) / 2, from
/// data_fit = y^T K^-1 y and log_det = log|K|.
double LogMarginalFromTerms(double data_fit, double log_det, size_t n) {
  const double nd = static_cast<double>(n);
  return -0.5 * data_fit - 0.5 * log_det - 0.5 * nd * kLog2Pi;
}

bool AllFinite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// The observation check Fit, ExtendedWith and the grid selector share: x
/// and y parallel, noise_variances empty or parallel, and every value
/// finite. Emptiness is the caller's rule.
Status ValidateObservations(const std::vector<double>& x,
                            const std::vector<double>& y,
                            const std::vector<double>& noise_variances) {
  if (x.size() != y.size())
    return Status::InvalidArgument(
        StrFormat("x/y size mismatch: %zu vs %zu", x.size(), y.size()));
  if (!noise_variances.empty() && noise_variances.size() != x.size())
    return Status::InvalidArgument("noise_variances must parallel x");
  if (!AllFinite(x) || !AllFinite(y) || !AllFinite(noise_variances))
    return Status::InvalidArgument("x, y and noise variances must be finite");
  return Status::OK();
}

/// A kernel's hyperparameters must be positive and finite.
Status ValidateHyperparameters(double sf2, double l) {
  const bool positive = sf2 > 0.0 && l > 0.0;
  if (!positive || !std::isfinite(sf2) || !std::isfinite(l))
    return Status::InvalidArgument(
        StrFormat("kernel needs finite sf2, l > 0: %g, %g", sf2, l));
  return Status::OK();
}

}  // namespace

double Prediction::stddev() const { return std::sqrt(std::max(0.0, variance)); }

double JointPrediction::WeightedTotalStdDev(
    const std::vector<double>& weights) const {
  assert(weights.size() == mean.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i)
    for (size_t j = 0; j < weights.size(); ++j)
      acc += weights[i] * weights[j] * covariance(i, j);
  return std::sqrt(std::max(0.0, acc));
}

void GpRegression::FinishFit() {
  y_mean_ = TargetMean(y_);
  y_centered_.resize(y_.size());
  for (size_t i = 0; i < y_.size(); ++i) y_centered_[i] = y_[i] - y_mean_;
  alpha_ = chol_.Solve(y_centered_);
  log_marginal_ = LogMarginalFromTerms(linalg::Dot(y_centered_, alpha_),
                                       chol_.LogDeterminant(), x_.size());
}

Result<GpRegression> GpRegression::Fit(Kernel kernel, std::vector<double> x,
                                       std::vector<double> y,
                                       std::vector<double> noise_variances) {
  HUMO_RETURN_NOT_OK(ValidateObservations(x, y, noise_variances));
  if (x.empty()) return Status::InvalidArgument("empty training set");
  HUMO_RETURN_NOT_OK(
      ValidateHyperparameters(kernel.signal_variance(), kernel.length_scale()));

  GpRegression gp(kernel, std::move(x), std::move(y));
  linalg::Matrix k = gp.kernel_.GramSymmetric(gp.x_);
  k.AddToDiagonal(kNoiseFloor);
  for (size_t i = 0; i < noise_variances.size(); ++i)
    k(i, i) += noise_variances[i];

  HUMO_ASSIGN_OR_RETURN(gp.chol_, linalg::Cholesky::Factor(k));
  gp.FinishFit();
  return gp;
}

Result<GpRegression> GpRegression::ExtendedWith(
    const std::vector<double>& x_new, const std::vector<double>& y_new,
    const std::vector<double>& noise_variances_new) const {
  HUMO_RETURN_NOT_OK(ValidateObservations(x_new, y_new, noise_variances_new));
  if (x_new.empty()) return *this;

  const size_t n = x_.size();
  const size_t k = x_new.size();
  // New rows of the bordered Gram matrix: cross-covariances against the
  // existing training set, then the new block's lower triangle, with the
  // same two diagonal additions Fit applies (noise floor, then per-point
  // noise) so the extended matrix matches a from-scratch build bit-for-bit.
  linalg::Matrix rows(k, n + k);
  for (size_t i = 0; i < k; ++i) {
    kernel_.FillRow(x_new[i], x_.data(), n, rows.RowPtr(i));
    kernel_.FillRow(x_new[i], x_new.data(), i + 1, rows.RowPtr(i) + n);
    rows(i, n + i) += kNoiseFloor;
    if (!noise_variances_new.empty()) rows(i, n + i) += noise_variances_new[i];
  }

  GpRegression gp(kernel_, x_, y_);
  gp.x_.insert(gp.x_.end(), x_new.begin(), x_new.end());
  gp.y_.insert(gp.y_.end(), y_new.begin(), y_new.end());
  // Extended (not copy + Append): the frozen factor block is copied once,
  // directly into the extended matrix.
  HUMO_ASSIGN_OR_RETURN(gp.chol_, chol_.Extended(rows));
  gp.FinishFit();
  return gp;
}

Prediction GpRegression::Predict(double x_star) const {
  const size_t n = x_.size();
  linalg::Vector k_star(n);
  kernel_.FillRow(x_star, x_.data(), n, k_star.data());
  const linalg::Vector v = chol_.SolveLower(k_star);
  return {Mean(k_star.data()), Variance(x_star, v.data())};
}

double GpRegression::Mean(const double* cross) const {
  return y_mean_ + linalg::DotRange(cross, alpha_.data(), x_.size());
}

double GpRegression::Variance(double x_star, const double* whitened) const {
  const double v = kernel_(x_star, x_star) -
                   linalg::DotRange(whitened, whitened, x_.size());
  return v < 0.0 ? 0.0 : v;
}

std::vector<Prediction> GpRegression::PredictBatch(
    const std::vector<double>& x_star, linalg::Matrix* whitened,
    linalg::Matrix* cross) const {
  const size_t n = x_.size();
  const size_t q = x_star.size();
  // K(V*, V) as q x n rows: row j is Predict's k_star for query j (the
  // cross-covariance is symmetric in its arguments, so building it
  // query-major is the same values in a solve-friendly layout).
  linalg::Matrix k_cross(q, n);
  std::vector<Prediction> preds(q);
  ThreadPool::Global()->ParallelFor(
      q, /*grain=*/16, [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          kernel_.FillRow(x_star[j], x_.data(), n, k_cross.RowPtr(j));
          preds[j].mean = Mean(k_cross.RowPtr(j));
        }
      });
  if (cross != nullptr) *cross = k_cross;
  // One blocked multi-RHS forward substitution replaces q per-point solves;
  // it runs in K(V*, V)'s storage, which then holds the whitened rows.
  linalg::Matrix w = chol_.SolveLowerRows(std::move(k_cross));
  ThreadPool::Global()->ParallelFor(
      q, /*grain=*/16, [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j)
          preds[j].variance = Variance(x_star[j], w.RowPtr(j));
      });
  if (whitened != nullptr) *whitened = std::move(w);
  return preds;
}

void GpRegression::ExtendRows(double x_star, QueryRows* rows) const {
  const size_t n = x_.size();
  const size_t from = rows->cross.size();
  assert(from <= n && rows->whitened.size() == from);
  rows->cross.resize(n);
  rows->whitened.resize(n);
  kernel_.FillRow(x_star, x_.data() + from, n - from,
                  rows->cross.data() + from);
  // SolveLower's expression for the new entries; the old ones depend only
  // on the factor rows this model shares with the one they were built on.
  const linalg::Matrix& l = chol_.L();
  double* w = rows->whitened.data();
  for (size_t i = from; i < n; ++i)
    w[i] = linalg::SubDotRange(rows->cross[i], l.RowPtr(i), w, i) / l(i, i);
}

Prediction GpRegression::PredictFromRows(double x_star,
                                         const QueryRows& rows) const {
  assert(rows.cross.size() == x_.size() && rows.whitened.size() == x_.size());
  return {Mean(rows.cross.data()), Variance(x_star, rows.whitened.data())};
}

JointPrediction GpRegression::PredictJoint(
    const std::vector<double>& x_star) const {
  const size_t n = x_.size();
  const size_t q = x_star.size();
  JointPrediction jp;
  jp.mean.resize(q);
  // K(V*, V) — q x n, one row per query (see PredictBatch).
  linalg::Matrix k_cross(q, n);
  for (size_t j = 0; j < q; ++j)
    kernel_.FillRow(x_star[j], x_.data(), n, k_cross.RowPtr(j));
  // Means: y_mean + K(V*,V) alpha.
  for (size_t j = 0; j < q; ++j) {
    jp.mean[j] =
        y_mean_ + linalg::DotRange(k_cross.RowPtr(j), alpha_.data(), n);
  }
  // Posterior covariance: K(V*,V*) - K(V*,V) K^-1 K(V,V*)
  //                     = K(V*,V*) - W W^T with row j of W = L^-1 k(V, x*_j),
  // all rows obtained in one blocked multi-RHS substitution.
  const linalg::Matrix w = chol_.SolveLowerRows(k_cross);
  jp.covariance = kernel_.GramSymmetric(x_star);
  for (size_t a = 0; a < q; ++a) {
    for (size_t b = 0; b <= a; ++b) {
      const double acc = linalg::DotRange(w.RowPtr(a), w.RowPtr(b), n);
      jp.covariance(a, b) -= acc;
      if (a != b) jp.covariance(b, a) = jp.covariance(a, b);
    }
  }
  // Clamp tiny negative diagonal values from roundoff.
  for (size_t a = 0; a < q; ++a)
    if (jp.covariance(a, a) < 0.0) jp.covariance(a, a) = 0.0;
  return jp;
}

double GpRegression::LogMarginalLikelihood() const { return log_marginal_; }

linalg::Vector GpRegression::WhitenedCross(double x_star) const {
  const size_t n = x_.size();
  linalg::Vector k_star(n);
  kernel_.FillRow(x_star, x_.data(), n, k_star.data());
  return chol_.SolveLower(k_star);
}

namespace {

constexpr size_t kLanes = linalg::CholeskyLanes::kLanes;
constexpr size_t kNoCandidate = std::numeric_limits<size_t>::max();

Status ValidateGridInputs(const std::vector<double>& x,
                          const std::vector<double>& y,
                          const std::vector<GpCandidate>& grid,
                          const std::vector<double>& noise_variances) {
  if (grid.empty()) return Status::InvalidArgument("empty candidate grid");
  HUMO_RETURN_NOT_OK(ValidateObservations(x, y, noise_variances));
  if (x.empty()) return Status::InvalidArgument("empty training set");
  for (const GpCandidate& c : grid)
    HUMO_RETURN_NOT_OK(
        ValidateHyperparameters(c.signal_variance, c.length_scale));
  return Status::OK();
}

/// One length scale's kernel shape at every pair of training inputs, in
/// CholeskyLanes' panel order (see LaneMatrixSource), so a panel request is
/// one contiguous run. Within a diagonal block the slots above the diagonal
/// hold the mirrored pair's shape, which the factor never reads.
struct ScaleShapes {
  double length_scale = 0.0;
  std::vector<double> env;
};

void ComputeShapes(const std::vector<double>& x, ScaleShapes* shapes) {
  using linalg::CholeskyLanes;
  const size_t n = x.size();
  const size_t size = CholeskyLanes::PanelOrderSize(n);
  // Every panel's distances, the ones Kernel::operator() evaluates the
  // kernel at, then all the shapes in one row pass.
  shapes->env.resize(size);
  size_t idx = 0;
  for (size_t j0 = 0; j0 < n; j0 += CholeskyLanes::kBlock) {
    const size_t j_end = std::min(j0 + CholeskyLanes::kBlock, n);
    for (size_t i = j0; i < n; ++i) {
      for (size_t j = j0; j < j_end; ++j, ++idx)
        shapes->env[idx] = x[i] >= x[j] ? x[i] - x[j] : x[j] - x[i];
    }
  }
  assert(idx == size);
  ShapeRow(shapes->env.data(), size, shapes->length_scale, shapes->env.data());
}

/// The four matrices of one lane group: lane q holds the noisy Gram matrix
/// GpRegression::Fit would factor for its candidate, entry by entry in
/// Fit's operation order — sf2 * env, then kNoiseFloor on the diagonal,
/// then the point's own noise on it.
class GridLanes : public linalg::LaneMatrixSource {
 public:
  GridLanes(const std::array<const ScaleShapes*, kLanes>& shapes,
            const std::array<double, kLanes>& sf2,
            const std::vector<double>& noise, size_t n)
      : shapes_(shapes), sf2_(sf2), noise_(noise), n_(n) {}

  void FillPanel(size_t j0, size_t width, double* out) const override {
    const size_t offset = linalg::CholeskyLanes::PanelOffset(j0, n_);
    const size_t count = (n_ - j0) * width;
    for (size_t q = 0; q < kLanes; ++q) {
      const double* env = shapes_[q]->env.data() + offset;
      for (size_t k = 0; k < count; ++k) out[kLanes * k + q] = sf2_[q] * env[k];
    }
    for (size_t i = j0; i < j0 + width; ++i) {
      double* diag = out + kLanes * ((i - j0) * width + (i - j0));
      for (size_t q = 0; q < kLanes; ++q) {
        diag[q] += kNoiseFloor;
        if (!noise_.empty()) diag[q] += noise_[i];
      }
    }
  }

 private:
  std::array<const ScaleShapes*, kLanes> shapes_;
  std::array<double, kLanes> sf2_;
  const std::vector<double>& noise_;
  size_t n_;
};

/// A candidate chosen so far: its LML and grid index, and where its factor
/// lives — lane `lane` of some CholeskyLanes, or `refit` when its lane
/// failed and Fit's jitter escalation rescued it.
struct Pick {
  double lml = -std::numeric_limits<double>::infinity();
  size_t index = kNoCandidate;
  size_t lane = 0;
  std::optional<GpRegression> refit;
};

/// The serial scan's selection rule, independent of evaluation order: a
/// finite-or-+inf LML beats the pick when it is larger, or equal with an
/// earlier grid index (the scan keeps the first of a tie). -inf and NaN
/// never win, as they never strictly improve on the scan's -inf start.
bool Beats(double lml, size_t index, const Pick& pick) {
  if (!(lml > -std::numeric_limits<double>::infinity())) return false;
  return lml > pick.lml || (lml == pick.lml && index < pick.index);
}

}  // namespace

Result<GpRegression> SelectGpByMarginalLikelihood(
    const std::vector<double>& x, const std::vector<double>& y,
    const std::vector<GpCandidate>& grid, std::vector<double> noise_variances) {
  HUMO_RETURN_NOT_OK(ValidateGridInputs(x, y, grid, noise_variances));
  const size_t n = x.size();
  const double y_mean = TargetMean(y);
  std::vector<double> y_centered(n);
  for (size_t i = 0; i < n; ++i) y_centered[i] = y[i] - y_mean;

  // One shape per distinct length scale, shared by every signal variance.
  std::vector<ScaleShapes> shapes;
  std::vector<size_t> scale_of(grid.size());
  for (size_t c = 0; c < grid.size(); ++c) {
    size_t s = 0;
    while (s < shapes.size() && shapes[s].length_scale != grid[c].length_scale)
      ++s;
    if (s == shapes.size()) shapes.push_back({grid[c].length_scale, {}});
    scale_of[c] = s;
  }
  ThreadPool::Global()->ParallelFor(
      shapes.size(), /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          ComputeShapes(x, &shapes[s]);
        }
      });

  // A candidate whose jitter-free lane factor failed: Fit retries it with
  // jitter, as the per-candidate loop would have.
  auto refit = [&](size_t c) {
    const Kernel kernel(grid[c].signal_variance, grid[c].length_scale);
    return GpRegression::Fit(kernel, x, y, noise_variances);
  };
  // Lane groups run in parallel; each merges its pick into `winner` under
  // the lock with Beats, whose order does not depend on which group
  // finishes first, so the winner is the serial scan's at any thread count.
  // Only the winner's factor is kept: a group whose lane wins swaps its
  // lanes with `winner_lanes`.
  Pick winner;
  linalg::CholeskyLanes winner_lanes;
  std::mutex winner_mu;
  // Group g holds candidates 4g .. 4g + 3; idle lanes of the last group
  // repeat its first candidate, and their results are ignored.
  const size_t num_groups = (grid.size() + kLanes - 1) / kLanes;
  ThreadPool::Global()->ParallelFor(
      num_groups, /*grain=*/1, [&](size_t begin, size_t end) {
        linalg::CholeskyLanes lanes;
        std::vector<double> alpha(kLanes * n);
        for (size_t g = begin; g < end; ++g) {
          const size_t first = kLanes * g;
          const size_t used = std::min(kLanes, grid.size() - first);
          std::array<const ScaleShapes*, kLanes> scales;
          std::array<double, kLanes> sf2;
          for (size_t q = 0; q < kLanes; ++q) {
            const size_t c = first + (q < used ? q : 0);
            scales[q] = &shapes[scale_of[c]];
            sf2[q] = grid[c].signal_variance;
          }
          const GridLanes source(scales, sf2, noise_variances, n);
          const unsigned factored = lanes.Factor(n, source);
          if (factored != 0) lanes.Solve(y_centered.data(), alpha.data());

          Pick pick;
          for (size_t q = 0; q < used; ++q) {
            const size_t c = first + q;
            if ((factored >> q) & 1u) {
              // Dot(y_centered, alpha) and LogDeterminant, per lane.
              double data_fit = 0.0;
              for (size_t i = 0; i < n; ++i)
                data_fit += y_centered[i] * alpha[kLanes * i + q];
              const double log_det = lanes.LogDeterminant(q);
              const double lml = LogMarginalFromTerms(data_fit, log_det, n);
              if (Beats(lml, c, pick)) pick = Pick{lml, c, q, std::nullopt};
              continue;
            }
            Result<GpRegression> fit = refit(c);
            if (!fit.ok()) continue;
            const double lml = fit->LogMarginalLikelihood();
            if (Beats(lml, c, pick)) pick = Pick{lml, c, 0, std::move(*fit)};
          }
          if (pick.index == kNoCandidate) continue;
          std::lock_guard<std::mutex> lock(winner_mu);
          if (!Beats(pick.lml, pick.index, winner)) continue;
          if (!pick.refit.has_value()) std::swap(winner_lanes, lanes);
          winner = std::move(pick);
        }
      });

  if (winner.index == kNoCandidate)
    return Status::Internal("no candidate produced a valid fit");
  if (winner.refit.has_value()) return std::move(*winner.refit);
  const GpCandidate& best = grid[winner.index];
  const Kernel kernel(best.signal_variance, best.length_scale);
  GpRegression gp(kernel, x, y);
  gp.chol_ = winner_lanes.Lane(winner.lane);
  gp.FinishFit();
  return gp;
}

std::vector<GpCandidate> DefaultGpGrid() {
  std::vector<GpCandidate> grid;
  for (double sf2 : {0.0025, 0.01, 0.05, 0.25, 1.0}) {
    for (double l : {0.02, 0.05, 0.1, 0.2, 0.5, 1.0}) {
      grid.push_back({sf2, l});
    }
  }
  return grid;
}

std::vector<GpCandidate> GapGuardedGrid(const std::vector<double>& xs) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  double max_gap = 0.0;
  for (size_t t = 1; t < sorted.size(); ++t)
    max_gap = std::max(max_gap, sorted[t] - sorted[t - 1]);
  const double min_length_scale = 1.5 * max_gap;
  std::vector<GpCandidate> grid;
  for (const GpCandidate& cand : DefaultGpGrid()) {
    if (cand.length_scale >= min_length_scale) grid.push_back(cand);
  }
  if (grid.empty()) {
    // Gaps exceed every stock scale: fall back to scales proportional to
    // the gap itself.
    for (double sf2 : {0.01, 0.25, 1.0})
      grid.push_back({sf2, min_length_scale});
  }
  return grid;
}

}  // namespace humo::gp
