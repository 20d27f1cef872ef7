#include "core/risk_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/random.h"
#include "stats/distributions.h"

namespace humo::core {
namespace {

/// Beta prior over the match proportion of a subset's uninspected pairs.
/// The uniform prior keeps the posterior proper with zero evidence;
/// Jeffreys (0.5/0.5) is sharper but anti-conservative at tiny counts.
constexpr double kPriorA = 1.0;
constexpr double kPriorB = 1.0;

}  // namespace

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

size_t RiskModel::Uninspected(size_t k) const {
  assert(k >= lo_ && k <= hi_);
  return size_[k - lo_] - inspected_[k - lo_];
}

size_t RiskModel::InspectedMatches(size_t k) const {
  assert(k >= lo_ && k <= hi_);
  return matches_[k - lo_];
}

RiskModel::Posterior RiskModel::PosteriorOf(size_t k) const {
  assert(k >= lo_ && k <= hi_);
  const size_t t = k - lo_;
  // Beta posterior over the direct evidence.
  const double a = kPriorA + static_cast<double>(matches_[t]);
  const double b = kPriorB + static_cast<double>(inspected_[t] - matches_[t]);
  const double ab = a + b;
  Posterior beta;
  beta.mean = a / ab;
  beta.variance = a * b / (ab * ab * (ab + 1.0));
  beta.from_beta = true;
  // GP posterior from the partial-sampling fit (exact subsets carry zero
  // variance and their observed proportion).
  Posterior gp;
  gp.mean = model_->PosteriorMean(k);
  gp.variance = model_->PosteriorVariance(k);
  gp.from_beta = false;
  return gp.variance <= beta.variance ? gp : beta;
}

double RiskModel::PosteriorMean(size_t k) const { return PosteriorOf(k).mean; }

double RiskModel::PosteriorVariance(size_t k) const {
  return PosteriorOf(k).variance;
}

double RiskModel::PairRisk(size_t k, double confidence) const {
  assert(k >= lo_ && k <= hi_);
  const size_t t = k - lo_;
  if (inspected_[t] >= size_[t]) return 0.0;  // nothing machine-labeled
  const Posterior post = PosteriorOf(k);
  const bool label_match = post.mean >= 0.5;
  // Upper tail of the ERROR proportion: 1 - lower tail of p for a match
  // label, upper tail of p for an unmatch label.
  double err_hi;
  if (post.from_beta) {
    const stats::ProportionInterval iv = stats::BetaPosteriorInterval(
        matches_[t], inspected_[t], confidence, kPriorA, kPriorB);
    err_hi = label_match ? 1.0 - iv.lo : iv.hi;
  } else {
    const double z = stats::NormalTwoSidedCritical(confidence);
    const double half = z * std::sqrt(std::max(0.0, post.variance));
    err_hi = label_match ? 1.0 - (post.mean - half) : post.mean + half;
  }
  return std::clamp(err_hi, 0.0, 1.0);
}

RiskModel::UninspectedAggregate RiskModel::Aggregate(size_t a,
                                                     size_t b) const {
  assert(a >= lo_ && a <= b && b <= hi_);
  UninspectedAggregate agg;
  for (size_t k = a; k <= b; ++k) {
    const size_t t = k - lo_;
    const double u = static_cast<double>(size_[t] - inspected_[t]);
    if (u == 0.0) continue;
    const Posterior post = PosteriorOf(k);
    const double p = std::clamp(post.mean, 0.0, 1.0);
    const double mean = u * p;
    const double var = u * u * post.variance + u * p * (1.0 - p);
    if (post.mean >= 0.5) {
      agg.match_mean += mean;
      agg.match_var += var;
      agg.match_pairs += u;
    } else {
      agg.unmatch_mean += mean;
      agg.unmatch_var += var;
      agg.unmatch_pairs += u;
    }
  }
  return agg;
}

size_t RiskModel::TotalInspectedMatches(size_t a, size_t b) const {
  assert(a >= lo_ && a <= b && b <= hi_);
  size_t total = 0;
  for (size_t k = a; k <= b; ++k) total += matches_[k - lo_];
  return total;
}

size_t RiskModel::TotalUninspected(size_t a, size_t b) const {
  assert(a >= lo_ && a <= b && b <= hi_);
  size_t total = 0;
  for (size_t k = a; k <= b; ++k)
    total += size_[k - lo_] - inspected_[k - lo_];
  return total;
}

RiskCertificate CertifyRange(const RiskModel& risk, size_t a, size_t b,
                             const GpRangeAccumulator& dplus,
                             const GpRangeAccumulator& dminus,
                             double confidence) {
  const double z = stats::NormalTwoSidedCritical(confidence);
  const RiskModel::UninspectedAggregate agg = risk.Aggregate(a, b);
  const double inspected_matches =
      static_cast<double>(risk.TotalInspectedMatches(a, b));
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

RiskCertificate CertifyRangePotential(const RiskModel& risk, size_t a,
                                      size_t b,
                                      const GpRangeAccumulator& dplus,
                                      const GpRangeAccumulator& dminus,
                                      double confidence) {
  const RiskModel::UninspectedAggregate agg = risk.Aggregate(a, b);
  // Full inspection finds every DH match (expected count: evidence plus
  // both buckets' posterior means) and leaves no machine-labeled pairs —
  // only the D+/D- bounds remain.
  const double dh_matches =
      static_cast<double>(risk.TotalInspectedMatches(a, b)) + agg.match_mean +
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

void SeedRiskEvidence(const SubsetPartition& partition, const Oracle& oracle,
                      RiskModel* risk) {
  assert(risk != nullptr);
  for (size_t k = risk->lo(); k <= risk->hi(); ++k) {
    const Subset& s = partition[k];
    size_t inspected = 0, matches = 0;
    for (size_t i = s.begin; i < s.end; ++i) {
      if (!oracle.WasAsked(i)) continue;
      ++inspected;
      matches += oracle.CachedAnswer(i);
    }
    risk->SetEvidence(k, inspected, matches);
  }
}

}  // namespace humo::core
