#pragma once

#include <cstddef>
#include <vector>

#include "gp/gp_regression.h"
#include "linalg/matrix.h"

namespace humo::core {

/// Per-subset observation status feeding the bound computation.
struct SubsetObservation {
  /// True when the subset was fully enumerated by the human — its match
  /// count is then known exactly and contributes no uncertainty.
  bool exact = false;
  /// Observed match proportion (only meaningful when exact).
  double proportion = 0.0;
};

/// A fitted Gaussian-process view over the unit subsets of a workload:
/// per-subset posterior match-proportion means plus the machinery needed to
/// bound the total match count of any contiguous subset range (the n+ of
/// Eq. 13/14 computed via Eq. 19-21).
///
/// The statistical model is: subset proportion p_k = f(v_k) + e_k with a
/// smooth latent f (the GP) and independent per-subset scatter
/// e_k ~ N(0, scatter_var) capturing the distribution irregularity the
/// paper's sigma parameter controls. Fully-enumerated subsets enter ranges
/// with their exact counts; unsampled subsets contribute the GP posterior
/// of f (correlated across subsets, Eq. 20) plus their own independent
/// scatter variance.
class GpSubsetModel {
 public:
  /// `avg_similarity[k]` / `subset_sizes[k]` describe subset k of the
  /// partition; the GP must have been fitted on sampled (similarity,
  /// proportion) observations. `observations` (optional, may be empty)
  /// marks exactly-known subsets; `scatter_variance` (empty = all zero) is
  /// the independent per-subset proportion variance: workload irregularity
  /// plus the binomial realization variance of the subset's count around
  /// the latent rate.
  /// `variance_inflation` scales the GP-posterior part of every range
  /// variance; it is the leave-one-out calibration factor measured on the
  /// sampled subsets (1 = the GP is well calibrated; >1 = the fit misses
  /// its own pins by more than its posterior claims, so widen the bounds).
  GpSubsetModel(gp::GpRegression gp, std::vector<double> avg_similarity,
                std::vector<double> subset_sizes,
                std::vector<SubsetObservation> observations = {},
                std::vector<double> scatter_variance = {},
                double variance_inflation = 1.0);

  /// The same model from a posterior the caller already holds:
  /// `predictions` and `whitened` must be what
  /// `gp.PredictBatch(avg_similarity, &whitened)` returned. A caller that
  /// needs the per-subset predictions itself (SAMP derives the scatter
  /// variances from them) hands its pass over instead of paying for a
  /// second one; the model is bit-identical to the constructor above.
  GpSubsetModel(gp::GpRegression gp, std::vector<double> avg_similarity,
                std::vector<double> subset_sizes,
                const std::vector<gp::Prediction>& predictions,
                std::vector<linalg::Vector> whitened,
                std::vector<SubsetObservation> observations,
                std::vector<double> scatter_variance,
                double variance_inflation);

  size_t num_subsets() const { return v_.size(); }

  /// Best estimate of subset k's match proportion: the exact observation
  /// when available, otherwise the GP posterior mean clamped to [0,1].
  double PosteriorMean(size_t k) const { return mean_[k]; }

  /// True when subset k's match count is exactly known.
  bool IsExact(size_t k) const {
    return !obs_.empty() && obs_[k].exact;
  }

  /// Posterior variance of subset k's match proportion: the LOO-inflated GP
  /// posterior variance at v_k plus the subset's independent scatter; 0 for
  /// exact subsets. Computed from the cached whitened cross vector
  /// (GpRegression::PosteriorVarianceFromWhitened), so it costs one kernel
  /// evaluation plus one O(train) dot product — this is the per-subset
  /// uncertainty the risk-aware optimizer scores inspection priority with.
  double PosteriorVariance(size_t k) const;

  /// Independent scatter variance applied to non-exact subset k.
  double ScatterVariance(size_t k) const {
    return scatter_.empty() ? 0.0 : scatter_[k];
  }

  /// LOO calibration factor applied to the GP-posterior variance part.
  double variance_inflation() const { return variance_inflation_; }

  /// Whitened cross vector of subset k (L^-1 k(V, v_k)).
  const linalg::Vector& W(size_t k) const { return w_[k]; }

  /// Prior kernel value between subsets a and b.
  double PriorK(size_t a, size_t b) const;

  /// Prior cross-sums of non-exact subset k against the non-exact subsets
  /// below and above it, each accumulated in ascending j from 0.0:
  ///   LeftCross(k)  = sum_{j<k, non-exact} n_j K(v_k, v_j)
  ///   RightCross(k) = sum_{j>k, non-exact} n_j K(v_k, v_j)
  /// These are the cross terms a range accumulator needs when k enters or
  /// leaves a range anchored at subset 0 or at subset m-1; both are 0 for
  /// exact subsets.
  double LeftCross(size_t k) const { return left_cross_[k]; }
  double RightCross(size_t k) const { return right_cross_[k]; }

  double SubsetSize(size_t k) const { return n_[k]; }
  double AvgSimilarity(size_t k) const { return v_[k]; }

  /// Total pairs in subsets [a, b]; 0 when a > b.
  double PopulationInRange(size_t a, size_t b) const;

  const gp::GpRegression& gp() const { return gp_; }

 private:
  /// Fills the means, population prefix and cross-sums from the posterior
  /// predictions (w_ already set).
  void InitFromPosterior(const std::vector<gp::Prediction>& predictions);

  gp::GpRegression gp_;
  std::vector<double> v_;
  std::vector<double> n_;
  std::vector<double> mean_;
  std::vector<linalg::Vector> w_;
  std::vector<SubsetObservation> obs_;
  std::vector<double> scatter_;
  double variance_inflation_ = 1.0;
  std::vector<double> pop_prefix_;  // pop_prefix_[k] = sum n_[0..k-1]
  std::vector<double> left_cross_;
  std::vector<double> right_cross_;
};

/// Incrementally maintained estimate of the total match count over a
/// contiguous subset range [a, b], following Eq. 19-21:
///   mean  = sum_k n_k m_k
///   var   = sum_{k,l not exact} n_k n_l cov(k,l) + sum_{k not exact}
///           n_k^2 scatter_var
/// with cov from the GP posterior, decomposed as
///   cov(k,l) = K(v_k,v_l) - w_k.w_l
/// Extending or shrinking the range by one subset costs O(dim(w)) plus the
/// prior cross terms of that subset against the rest of the range. When the
/// rest is anchored at subset 0 or at subset m-1 those are the model's
/// precomputed LeftCross/RightCross (no kernel evaluation); otherwise they
/// are O(range) kernel evaluations. The optimizers' sweeps move anchored
/// edges, so a sweep over m subsets costs O(m dim(w)) after the model's
/// one-off O(m^2) cross-sum pass; ranges anchored at neither end (SAMP's
/// DH when its lower bound is above 0, SetRange(a, b) with a > 0) keep the
/// O(range) step. Exact subsets contribute their known counts and no
/// variance.
class GpRangeAccumulator {
 public:
  explicit GpRangeAccumulator(const GpSubsetModel* model);

  /// Rebuilds the accumulator for range [a, b] (inclusive): O(len) steps,
  /// each kernel-free when a == 0 and O(len) kernel evaluations otherwise.
  void SetRange(size_t a, size_t b);
  /// Makes the range empty.
  void Clear();

  bool IsEmpty() const { return empty_; }
  size_t a() const { return a_; }
  size_t b() const { return b_; }

  /// Grows the range by one subset on either side.
  void ExtendRight();
  void ExtendLeft();
  /// Shrinks the range by one subset on either side. Shrinking a
  /// single-subset range empties it.
  void ShrinkLeft();
  void ShrinkRight();

  /// Point estimate of total matches in the range (Eq. 19), clamped to
  /// [0, population].
  double TotalMean() const;
  /// Posterior std-dev of the total (Eq. 20 + independent scatter).
  double TotalStdDev() const;
  /// Two-sided bound at `confidence` (Eq. 21), clamped to [0, population].
  double LowerBound(double confidence) const;
  double UpperBound(double confidence) const;
  double Population() const;

 private:
  void AddSubset(size_t k);
  void RemoveSubset(size_t k);
  /// sum_j n_j K(v_k, v_j) over the non-exact members of [a_, b_] other
  /// than k, in ascending j.
  double CrossSum(size_t k) const;

  const GpSubsetModel* model_;
  size_t a_ = 0, b_ = 0;
  bool empty_ = true;
  double mean_sum_ = 0.0;
  double prior_q_ = 0.0;   // sum_{k,l in range, non-exact} n_k n_l K(v_k,v_l)
  linalg::Vector w_sum_;   // sum_{k non-exact} n_k w_k
  double scatter_sum_ = 0.0;  // sum_{k non-exact} n_k^2 scatter_k
  double pop_sum_ = 0.0;
};

}  // namespace humo::core
