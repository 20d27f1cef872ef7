#pragma once

#include <cstddef>
#include <vector>

#include "gp/gp_regression.h"
#include "linalg/matrix.h"
#include "stats/stratified.h"

namespace humo::core {

/// Posterior of one subset's match rate given its own evidence, and the
/// predictive moments of the match count among its uninspected pairs.
struct SubsetPosterior {
  double rate_mean = 0.0;       ///< p-bar, in [0, 1]
  double rate_variance = 0.0;   ///< r
  double count_mean = 0.0;      ///< u p-bar
  double count_variance = 0.0;  ///< u^2 r + u p-bar (1 - p-bar)
};

/// The per-subset posterior SAMP, HYBR and RISK share (r-HUMO's). Prior
/// N(m, v) on the subset's match rate; evidence `matches` = x of
/// `inspected` = s of its `size` pairs, read as x-hat = x/s with variance
/// e = p~(1-p~)/s at p~ = (x+1/2)/(s+1). The prior variance is widened to
/// w = max(v, (m - x-hat)^2 - e), so a prior that contradicts the evidence
/// cannot outvote it, and the two combine by precision: r = 1/(1/w + 1/e),
/// p-bar = clamp(r (m/w + x-hat/e), 0, 1), evaluated in gain form so that
/// s = 0 returns the prior exactly. Only the u = size - s uninspected pairs
/// are predicted; u = 0 is an exact count.
SubsetPosterior ConditionSubset(double prior_mean, double prior_variance,
                                size_t matches, size_t inspected, size_t size);

/// Prior N(mean, variance) on one subset's match rate.
struct RatePrior {
  double mean = 0.0;
  double variance = 0.0;
};

/// The prior GpSubsetModel holds on a subset whose GP posterior at its
/// average similarity is `pred`: the mean clamped to [0, 1], and
/// `variance_inflation` times the GP variance plus the subset's independent
/// `scatter` variance.
RatePrior SubsetPrior(const gp::Prediction& pred, double variance_inflation,
                      double scatter);

/// SAMP's independent scatter of a subset of `size` pairs: the workload
/// irregularity `workload_scatter` plus the binomial variance of the
/// subset's realized count around the latent rate `gp_mean` (smoothed so a
/// rate near 0 still carries width).
double SubsetScatterVariance(double gp_mean, double size,
                             double workload_scatter);

/// A fitted Gaussian-process view over the unit subsets of a workload:
/// per-subset match-proportion estimates plus the machinery needed to bound
/// the total match count of any contiguous subset range (the n+ of Eq. 13/14
/// computed via Eq. 19-21).
///
/// The statistical model is: subset proportion p_k = f(v_k) + e_k with a
/// smooth latent f (the GP) and independent per-subset scatter
/// e_k ~ N(0, scatter_k) capturing the distribution irregularity the paper's
/// sigma parameter controls. The model holds the resulting prior on every
/// p_k: the clamped GP posterior mean, and the LOO-inflated GP posterior
/// variance plus scatter_k. A subset without evidence enters ranges through
/// the GP posterior of f (correlated across subsets, Eq. 20) plus its own
/// scatter. A subset with evidence (x matches among s inspected pairs) is
/// conditioned on it by ConditionSubset: it enters ranges as x plus the
/// predicted count of its uninspected pairs, whose variance is independent
/// of the GP cross terms. A fully inspected subset is the u = 0 case: an
/// exact count.
class GpSubsetModel {
 public:
  /// `avg_similarity[k]` / `subset_sizes[k]` describe subset k of the
  /// partition; the GP must have been fitted on sampled (similarity,
  /// proportion) observations. `predictions` and `whitened` must be what
  /// `gp.PredictBatch(avg_similarity, &whitened)` returned: the caller
  /// makes that one posterior pass (SAMP also derives the scatter variances
  /// from it). `evidence` (may be empty) holds each subset's inspected
  /// pairs: `sample_size` distinct pairs of which `sample_positives` are
  /// matches (0 of 0 = no evidence). `scatter_variance` (empty = all zero)
  /// is the independent per-subset proportion variance: workload
  /// irregularity plus the binomial realization variance of the subset's
  /// count around the latent rate. `variance_inflation` scales the
  /// GP-posterior part of every variance; it is the leave-one-out
  /// calibration factor measured on the sampled subsets (1 = the GP is well
  /// calibrated; >1 = the fit misses its own pins by more than its
  /// posterior claims, so widen the bounds).
  GpSubsetModel(gp::GpRegression gp, std::vector<double> avg_similarity,
                std::vector<double> subset_sizes,
                const std::vector<gp::Prediction>& predictions,
                std::vector<linalg::Vector> whitened,
                std::vector<stats::Stratum> evidence,
                std::vector<double> scatter_variance,
                double variance_inflation);

  size_t num_subsets() const { return v_.size(); }

  /// Prior on subset k's match proportion: the GP posterior mean clamped to
  /// [0,1], and the LOO-inflated GP posterior variance at v_k plus the
  /// subset's independent scatter. RISK conditions this prior on its own
  /// evidence.
  double PriorMean(size_t k) const { return prior_mean_[k]; }
  double PriorVariance(size_t k) const { return prior_var_[k]; }

  /// True when some of subset k's pairs were inspected.
  bool HasEvidence(size_t k) const {
    return !evidence_.empty() && evidence_[k].sample_size > 0;
  }

  /// Best estimate of subset k's match proportion: the prior mean without
  /// evidence, (x + u p-bar) / n_k with it.
  double PosteriorMean(size_t k) const { return mean_[k]; }

  /// Variance of subset k's match count that enters a range outside the GP
  /// cross terms: n_k^2 scatter_k without evidence, the predictive count
  /// variance of the uninspected pairs with it.
  double IndependentVariance(size_t k) const { return indep_var_[k]; }

  /// LOO calibration factor applied to the GP-posterior variance part.
  double variance_inflation() const { return variance_inflation_; }

  /// Whitened cross vector of subset k (L^-1 k(V, v_k)).
  const linalg::Vector& W(size_t k) const { return w_[k]; }

  /// Prior kernel value between subsets a and b.
  double PriorK(size_t a, size_t b) const;

  /// Prior cross-sums of evidence-free subset k against the evidence-free
  /// subsets below and above it, each accumulated in ascending j from 0.0:
  ///   LeftCross(k)  = sum_{j<k, no evidence} n_j K(v_k, v_j)
  ///   RightCross(k) = sum_{j>k, no evidence} n_j K(v_k, v_j)
  /// These are the cross terms a range accumulator needs when k enters or
  /// leaves a range anchored at subset 0 or at subset m-1; both are 0 for
  /// subsets with evidence.
  double LeftCross(size_t k) const { return left_cross_[k]; }
  double RightCross(size_t k) const { return right_cross_[k]; }

  double SubsetSize(size_t k) const { return n_[k]; }
  double AvgSimilarity(size_t k) const { return v_[k]; }

  const gp::GpRegression& gp() const { return gp_; }

 private:
  gp::GpRegression gp_;
  std::vector<double> v_;
  std::vector<double> n_;
  std::vector<linalg::Vector> w_;
  std::vector<stats::Stratum> evidence_;
  double variance_inflation_ = 1.0;
  std::vector<double> prior_mean_;
  std::vector<double> prior_var_;
  std::vector<double> mean_;
  std::vector<double> indep_var_;
  std::vector<double> left_cross_;
  std::vector<double> right_cross_;
};

/// Incrementally maintained estimate of the total match count over a
/// contiguous subset range [a, b], following Eq. 19-21:
///   mean  = sum_k n_k m_k
///   var   = sum_{k,l no evidence} n_k n_l cov(k,l) + sum_k indep_k
/// with cov from the GP posterior, decomposed as
///   cov(k,l) = K(v_k,v_l) - w_k.w_l
/// and indep_k the model's IndependentVariance (scatter without evidence,
/// the uninspected pairs' predictive variance with it).
/// Extending or shrinking the range by one subset costs O(dim(w)) plus the
/// prior cross terms of that subset against the rest of the range. When the
/// rest is anchored at subset 0 or at subset m-1 those are the model's
/// precomputed LeftCross/RightCross (no kernel evaluation); otherwise they
/// are O(range) kernel evaluations. The optimizers' sweeps move anchored
/// edges, so a sweep over m subsets costs O(m dim(w)) after the model's
/// one-off O(m^2) cross-sum pass; ranges anchored at neither end (SAMP's
/// DH when its lower bound is above 0, SetRange(a, b) with a > 0) keep the
/// O(range) step. Subsets with evidence take no part in the GP terms.
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
  /// sum_j n_j K(v_k, v_j) over the evidence-free members of [a_, b_]
  /// other than k, in ascending j.
  double CrossSum(size_t k) const;

  const GpSubsetModel* model_;
  size_t a_ = 0, b_ = 0;
  bool empty_ = true;
  double mean_sum_ = 0.0;
  double prior_q_ = 0.0;  // sum_{k,l in range, no evidence} n_k n_l K(v_k,v_l)
  linalg::Vector w_sum_;  // sum_{k no evidence} n_k w_k
  double indep_sum_ = 0.0;  // sum_k IndependentVariance(k)
  double pop_sum_ = 0.0;
};

}  // namespace humo::core
