#include "core/risk_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/random.h"
#include "stats/distributions.h"

namespace humo::core {

RiskModel::RiskModel(const GpSubsetModel* model, size_t lo, size_t hi)
    : model_(model), lo_(lo), hi_(hi) {
  assert(model_ != nullptr);
  assert(lo_ <= hi_ && hi_ < model_->num_subsets());
  const size_t len = hi_ - lo_ + 1;
  size_.resize(len);
  for (size_t k = lo_; k <= hi_; ++k)
    size_[k - lo_] = static_cast<size_t>(model_->SubsetSize(k));
  inspected_.assign(len, 0);
  matches_.assign(len, 0);
}

void RiskModel::SetEvidence(size_t k, size_t inspected, size_t matches) {
  assert(k >= lo_ && k <= hi_);
  const size_t t = k - lo_;
  assert(matches <= inspected && inspected <= size_[t]);
  assert(inspected >= inspected_[t]);  // evidence only accumulates
  inspected_[t] = inspected;
  matches_[t] = matches;
}

size_t RiskModel::InspectedMatches(size_t k) const {
  assert(k >= lo_ && k <= hi_);
  return matches_[k - lo_];
}

SubsetPosterior RiskModel::PosteriorOf(size_t k) const {
  assert(k >= lo_ && k <= hi_);
  const size_t t = k - lo_;
  return ConditionSubset(model_->PriorMean(k), model_->PriorVariance(k),
                         matches_[t], inspected_[t], size_[t]);
}

double RiskModel::PosteriorMean(size_t k) const {
  return PosteriorOf(k).rate_mean;
}

double RiskModel::PairRisk(size_t k, double confidence) const {
  assert(k >= lo_ && k <= hi_);
  const size_t t = k - lo_;
  if (inspected_[t] >= size_[t]) return 0.0;  // nothing machine-labeled
  const SubsetPosterior post = PosteriorOf(k);
  // Upper tail of the ERROR proportion: 1 - lower tail of p for a match
  // label, upper tail of p for an unmatch label.
  const double p = post.rate_mean;
  const double half =
      stats::NormalTwoSidedCritical(confidence) * std::sqrt(post.rate_variance);
  const double err_hi = p >= 0.5 ? 1.0 - (p - half) : p + half;
  return std::clamp(err_hi, 0.0, 1.0);
}

RiskModel::UninspectedAggregate RiskModel::Aggregate() const {
  UninspectedAggregate agg;
  for (size_t k = lo_; k <= hi_; ++k) {
    const size_t t = k - lo_;
    const double u = static_cast<double>(size_[t] - inspected_[t]);
    if (u == 0.0) continue;
    const SubsetPosterior post = PosteriorOf(k);
    if (post.rate_mean >= 0.5) {
      agg.match_mean += post.count_mean;
      agg.match_var += post.count_variance;
      agg.match_pairs += u;
    } else {
      agg.unmatch_mean += post.count_mean;
      agg.unmatch_var += post.count_variance;
      agg.unmatch_pairs += u;
    }
  }
  return agg;
}

size_t RiskModel::TotalInspectedMatches() const {
  size_t total = 0;
  for (size_t m : matches_) total += m;
  return total;
}

size_t RiskModel::TotalUninspected() const {
  size_t total = 0;
  for (size_t t = 0; t < size_.size(); ++t) total += size_[t] - inspected_[t];
  return total;
}

RiskCertificate CertifyRange(const RiskModel& risk,
                             const GpRangeAccumulator& dplus,
                             const GpRangeAccumulator& dminus,
                             double confidence) {
  const double z = stats::NormalTwoSidedCritical(confidence);
  const RiskModel::UninspectedAggregate agg = risk.Aggregate();
  const double inspected_matches =
      static_cast<double>(risk.TotalInspectedMatches());
  const double lb_dp = dplus.IsEmpty() ? 0.0 : dplus.LowerBound(confidence);
  const double n_dp = dplus.Population();
  const double ub_dm = dminus.IsEmpty() ? 0.0 : dminus.UpperBound(confidence);
  const double match_lb =
      std::max(0.0, agg.match_mean - z * std::sqrt(agg.match_var));
  const double unmatch_ub = std::min(
      agg.unmatch_pairs, agg.unmatch_mean + z * std::sqrt(agg.unmatch_var));
  const double tp_lb = lb_dp + inspected_matches + match_lb;
  const double predicted_pos = n_dp + inspected_matches + agg.match_pairs;
  RiskCertificate c;
  c.precision_lb =
      predicted_pos <= 0.0 ? 1.0 : std::min(1.0, tp_lb / predicted_pos);
  const double fn_ub = ub_dm + unmatch_ub;
  c.recall_lb = tp_lb + fn_ub <= 0.0 ? 1.0 : tp_lb / (tp_lb + fn_ub);
  return c;
}

RiskCertificate CertifyRangePotential(const RiskModel& risk,
                                      const GpRangeAccumulator& dplus,
                                      const GpRangeAccumulator& dminus,
                                      double confidence) {
  const RiskModel::UninspectedAggregate agg = risk.Aggregate();
  // Full inspection finds every DH match (expected count: evidence plus
  // both buckets' posterior means) and leaves no machine-labeled pairs —
  // only the D+/D- bounds remain.
  const double dh_matches =
      static_cast<double>(risk.TotalInspectedMatches()) + agg.match_mean +
      agg.unmatch_mean;
  const double lb_dp = dplus.IsEmpty() ? 0.0 : dplus.LowerBound(confidence);
  const double n_dp = dplus.Population();
  const double ub_dm = dminus.IsEmpty() ? 0.0 : dminus.UpperBound(confidence);
  const double tp = lb_dp + dh_matches;
  RiskCertificate c;
  c.precision_lb =
      n_dp + dh_matches <= 0.0 ? 1.0 : std::min(1.0, tp / (n_dp + dh_matches));
  c.recall_lb = tp + ub_dm <= 0.0 ? 1.0 : tp / (tp + ub_dm);
  return c;
}

std::vector<std::vector<size_t>> InitRiskEvidence(
    const SubsetPartition& partition, const Oracle& oracle, RiskModel* risk,
    uint64_t seed) {
  assert(risk != nullptr);
  std::vector<std::vector<size_t>> pending(risk->hi() - risk->lo() + 1);
  for (size_t k = risk->lo(); k <= risk->hi(); ++k) {
    const Subset& s = partition[k];
    size_t inspected = 0, matches = 0;
    std::vector<size_t>& todo = pending[k - risk->lo()];
    todo.reserve(s.size());
    for (size_t i = s.begin; i < s.end; ++i) {
      if (oracle.WasAsked(i)) {
        ++inspected;
        matches += oracle.CachedAnswer(i);
      } else {
        todo.push_back(i);
      }
    }
    Rng order = Rng::Stream(seed, k);
    order.Shuffle(&todo);
    risk->SetEvidence(k, inspected, matches);
  }
  return pending;
}

}  // namespace humo::core
