#include "core/gp_subset_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/distributions.h"

namespace humo::core {

SubsetPosterior ConditionSubset(double prior_mean, double prior_variance,
                                size_t matches, size_t inspected, size_t size) {
  assert(matches <= inspected && inspected <= size);
  const double x = static_cast<double>(matches);
  const double s = static_cast<double>(inspected);
  const double u = static_cast<double>(size - inspected);
  const double m = prior_mean;
  // Evidence: x-hat (0 when s = 0, where its weight below is 0) and its
  // variance at the smoothed rate, infinite when s = 0.
  const double x_hat = x / std::max(s, 1.0);
  const double p_smooth = (x + 0.5) / (s + 1.0);
  const double e = p_smooth * (1.0 - p_smooth) / s;
  const double gap = m - x_hat;
  const double w = std::max(prior_variance, gap * gap - e);
  const double gain = w / (w + e);
  SubsetPosterior post;
  post.rate_mean = std::clamp(m + gain * (x_hat - m), 0.0, 1.0);
  post.rate_variance = (1.0 - gain) * w;
  const double p = post.rate_mean;
  post.count_mean = u * p;
  post.count_variance = u * u * post.rate_variance + u * p * (1.0 - p);
  return post;
}

RatePrior SubsetPrior(const gp::Prediction& pred, double variance_inflation,
                      double scatter) {
  return {std::clamp(pred.mean, 0.0, 1.0),
          variance_inflation * pred.variance + scatter};
}

double SubsetScatterVariance(double gp_mean, double size,
                             double workload_scatter) {
  const double p = std::max(std::clamp(gp_mean, 0.0, 1.0), 0.5 / size);
  return workload_scatter + p * (1.0 - p) / size;
}

GpSubsetModel::GpSubsetModel(gp::GpRegression gp,
                             std::vector<double> avg_similarity,
                             std::vector<double> subset_sizes,
                             const std::vector<gp::Prediction>& predictions,
                             linalg::Matrix whitened,
                             std::vector<stats::Stratum> evidence,
                             std::vector<double> scatter_variance,
                             double variance_inflation)
    : gp_(std::move(gp)),
      v_(std::move(avg_similarity)),
      n_(std::move(subset_sizes)),
      w_(std::move(whitened)),
      evidence_(std::move(evidence)),
      variance_inflation_(variance_inflation) {
  assert(v_.size() == n_.size());
  assert(predictions.size() == v_.size() && w_.rows() == v_.size());
  assert(w_.cols() == gp_.num_training_points());
  assert(evidence_.empty() || evidence_.size() == v_.size());
  assert(scatter_variance.empty() || scatter_variance.size() == v_.size());
  assert(variance_inflation_ >= 1.0);
  const size_t m = v_.size();
  prior_mean_.resize(m);
  prior_var_.resize(m);
  mean_.resize(m);
  indep_var_.resize(m);
  for (size_t k = 0; k < m; ++k) {
    const double nk = n_[k];
    const double scatter_k =
        scatter_variance.empty() ? 0.0 : scatter_variance[k];
    const RatePrior prior =
        SubsetPrior(predictions[k], variance_inflation_, scatter_k);
    prior_mean_[k] = prior.mean;
    prior_var_[k] = prior.variance;
    if (HasEvidence(k)) {
      const stats::Stratum& ev = evidence_[k];
      assert(ev.sample_size <= static_cast<size_t>(nk));
      const SubsetPosterior post =
          ConditionSubset(prior_mean_[k], prior_var_[k], ev.sample_positives,
                          ev.sample_size, static_cast<size_t>(nk));
      const double x = static_cast<double>(ev.sample_positives);
      mean_[k] = (x + post.count_mean) / nk;
      indep_var_[k] = post.count_variance;
    } else {
      mean_[k] = prior_mean_[k];
      indep_var_[k] = nk * nk * scatter_k;
    }
  }
  // Cross-sums over the lower triangle, each kernel value evaluated once:
  // K(v_k, v_j) for j < k joins LeftCross(k) and RightCross(j). The outer
  // loop runs k upward, so every RightCross(j) also accumulates in
  // ascending order. The kernel is symmetric bit for bit (|x - y| is exact)
  // and FillRow evaluates the same expression as operator(), so each sum
  // is the same double the accumulator's O(range) loop produces.
  left_cross_.assign(m, 0.0);
  right_cross_.assign(m, 0.0);
  std::vector<double> row(m);
  for (size_t k = 1; k < m; ++k) {
    if (HasEvidence(k)) continue;
    gp_.kernel().FillRow(v_[k], v_.data(), k, row.data());
    const double nk = n_[k];
    double left = 0.0;
    for (size_t j = 0; j < k; ++j) {
      if (HasEvidence(j)) continue;
      left += n_[j] * row[j];
      right_cross_[j] += nk * row[j];
    }
    left_cross_[k] = left;
  }
}

double GpSubsetModel::PriorK(size_t a, size_t b) const {
  return gp_.kernel()(v_[a], v_[b]);
}

void GpSubsetModel::PriorRow(size_t k, size_t begin, size_t len,
                             double* out) const {
  assert(begin + len <= v_.size());
  gp_.kernel().FillRow(v_[k], v_.data() + begin, len, out);
}

GpRangeAccumulator::GpRangeAccumulator(const GpSubsetModel* model)
    : model_(model) {
  assert(model_ != nullptr);
  w_sum_.assign(model_->gp().num_training_points(), 0.0);
}

void GpRangeAccumulator::Clear() {
  empty_ = true;
  a_ = b_ = 0;
  mean_sum_ = 0.0;
  prior_q_ = 0.0;
  indep_sum_ = 0.0;
  pop_sum_ = 0.0;
  std::fill(w_sum_.begin(), w_sum_.end(), 0.0);
}

void GpRangeAccumulator::SetRange(size_t a, size_t b) {
  Clear();
  const size_t m = model_->num_subsets();
  if (a > b || b >= m) return;
  empty_ = false;
  if (a > 0 && b + 1 == m) {
    // A suffix grows from its anchored end, so each step reads RightCross.
    a_ = b_ = b;
    AddSubset(b);
    while (a_ > a) ExtendLeft();
    return;
  }
  a_ = b_ = a;
  AddSubset(a);
  while (b_ < b) ExtendRight();
}

void GpRangeAccumulator::AddSubset(size_t k) {
  const double nk = model_->SubsetSize(k);
  mean_sum_ += nk * model_->PosteriorMean(k);
  pop_sum_ += nk;
  indep_sum_ += model_->IndependentVariance(k);
  if (model_->HasEvidence(k)) return;  // conditioned counts: no GP terms
  // Prior double-sum update: cross terms against the current evidence-free
  // members plus the self term. The caller has already updated a_/b_ to
  // include k.
  prior_q_ += 2.0 * nk * CrossSum(k) + nk * nk * model_->PriorK(k, k);
  const double* wk = model_->W(k);
  for (size_t i = 0; i < w_sum_.size(); ++i) w_sum_[i] += nk * wk[i];
}

void GpRangeAccumulator::RemoveSubset(size_t k) {
  const double nk = model_->SubsetSize(k);
  mean_sum_ -= nk * model_->PosteriorMean(k);
  pop_sum_ -= nk;
  indep_sum_ -= model_->IndependentVariance(k);
  if (model_->HasEvidence(k)) return;
  // Membership still includes k at call time; subtract cross terms against
  // the remaining evidence-free members.
  prior_q_ -= 2.0 * nk * CrossSum(k) + nk * nk * model_->PriorK(k, k);
  const double* wk = model_->W(k);
  for (size_t i = 0; i < w_sum_.size(); ++i) w_sum_[i] -= nk * wk[i];
}

double GpRangeAccumulator::CrossSum(size_t k) {
  // k is always an edge of [a_, b_]. When the rest of the range is
  // [0, k-1] or [k+1, m-1], the model holds the sum already.
  if (a_ == 0 && k == b_) return model_->LeftCross(k);
  if (k == a_ && b_ + 1 == model_->num_subsets()) return model_->RightCross(k);
  const size_t len = b_ - a_ + 1;
  row_.resize(len);
  model_->PriorRow(k, a_, len, row_.data());
  double cross = 0.0;
  for (size_t j = a_; j <= b_; ++j) {
    if (j == k || model_->HasEvidence(j)) continue;
    cross += model_->SubsetSize(j) * row_[j - a_];
  }
  return cross;
}

void GpRangeAccumulator::ExtendRight() {
  if (empty_) {
    SetRange(0, 0);
    return;
  }
  assert(b_ + 1 < model_->num_subsets());
  ++b_;
  AddSubset(b_);
}

void GpRangeAccumulator::ExtendLeft() {
  if (empty_) {
    SetRange(model_->num_subsets() - 1, model_->num_subsets() - 1);
    return;
  }
  assert(a_ > 0);
  --a_;
  AddSubset(a_);
}

void GpRangeAccumulator::ShrinkLeft() {
  assert(!empty_);
  if (a_ == b_) {
    Clear();
    return;
  }
  const size_t k = a_;
  RemoveSubset(k);
  ++a_;
}

void GpRangeAccumulator::ShrinkRight() {
  assert(!empty_);
  if (a_ == b_) {
    Clear();
    return;
  }
  const size_t k = b_;
  RemoveSubset(k);
  --b_;
}

double GpRangeAccumulator::TotalMean() const {
  if (empty_) return 0.0;
  return std::clamp(mean_sum_, 0.0, pop_sum_);
}

double GpRangeAccumulator::TotalStdDev() const {
  if (empty_) return 0.0;
  double dot = 0.0;
  for (double x : w_sum_) dot += x * x;
  const double gp_var = std::max(0.0, prior_q_ - dot);
  const double var = model_->variance_inflation() * gp_var + indep_sum_;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double GpRangeAccumulator::LowerBound(double confidence) const {
  if (empty_) return 0.0;
  const double z = stats::NormalTwoSidedCritical(confidence);
  return std::max(0.0, TotalMean() - z * TotalStdDev());
}

double GpRangeAccumulator::UpperBound(double confidence) const {
  if (empty_) return 0.0;
  const double z = stats::NormalTwoSidedCritical(confidence);
  return std::min(pop_sum_, TotalMean() + z * TotalStdDev());
}

double GpRangeAccumulator::Population() const {
  return empty_ ? 0.0 : pop_sum_;
}

}  // namespace humo::core
