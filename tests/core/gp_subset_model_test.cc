#include "core/gp_subset_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "stats/distributions.h"

namespace humo::core {
namespace {

/// The model over `gp`'s posterior at `v`, built the way SAMP builds it:
/// one PredictBatch pass handed to the constructor.
GpSubsetModel ModelFromGp(gp::GpRegression gp, const std::vector<double>& v,
                          const std::vector<double>& n,
                          std::vector<stats::Stratum> evidence = {},
                          std::vector<double> scatter = {},
                          double inflation = 1.0) {
  linalg::Matrix whitened;
  const std::vector<gp::Prediction> preds = gp.PredictBatch(v, &whitened);
  return GpSubsetModel(std::move(gp), v, n, preds, std::move(whitened),
                       std::move(evidence), std::move(scatter), inflation);
}

/// Builds a model over `m` subsets of size 100 whose proportions follow a
/// smooth ramp, with every 4th subset observed.
GpSubsetModel MakeModel(size_t m = 20) {
  std::vector<double> train_x, train_y;
  std::vector<double> v(m), n(m, 100.0);
  for (size_t k = 0; k < m; ++k) {
    v[k] = (static_cast<double>(k) + 0.5) / static_cast<double>(m);
    // Every 4th subset observed, plus the last one so the top of the range
    // is interpolation rather than mean-reverting extrapolation.
    if (k % 4 == 0 || k + 1 == m) {
      train_x.push_back(v[k]);
      train_y.push_back(v[k]);  // proportion == similarity (a clean ramp)
    }
  }
  gp::GpOptions o;
  o.noise_variance = 1e-6;
  auto gp = gp::GpRegression::Fit(gp::Kernel(gp::KernelFamily::kRbf, 0.5, 0.3),
                                  train_x, train_y, o);
  EXPECT_TRUE(gp.ok());
  return ModelFromGp(std::move(*gp), v, n);
}

TEST(ConditionSubsetTest, NoEvidenceReturnsThePriorExactly) {
  const SubsetPosterior post = ConditionSubset(0.3, 0.004, 0, 0, 200);
  EXPECT_EQ(post.rate_mean, 0.3);
  EXPECT_EQ(post.rate_variance, 0.004);
  const double count_variance = 200.0 * 200.0 * 0.004 + 200.0 * 0.3 * 0.7;
  EXPECT_DOUBLE_EQ(post.count_mean, 60.0);
  EXPECT_DOUBLE_EQ(post.count_variance, count_variance);
}

TEST(ConditionSubsetTest, FullInspectionLeavesAnExactCount) {
  const SubsetPosterior post = ConditionSubset(0.9, 0.01, 37, 200, 200);
  EXPECT_EQ(post.count_mean, 0.0);
  EXPECT_EQ(post.count_variance, 0.0);
}

TEST(ConditionSubsetTest, ContradictedPriorCannotOutvoteItsPin) {
  // A confident prior at 1.0 against 124 matches in 200 of 240 pairs: the
  // widened prior gives way and the rate lands near the pin's 0.62.
  const SubsetPosterior post = ConditionSubset(1.0, 1e-6, 124, 200, 240);
  EXPECT_NEAR(post.rate_mean, 0.62, 0.02);
  EXPECT_GT(post.rate_variance, 1e-6);
  EXPECT_NEAR(post.count_mean, 40.0 * post.rate_mean, 1e-12);
}

TEST(ConditionSubsetTest, AgreeingEvidenceTightensThePrior) {
  const double prior_var = 0.01;
  const SubsetPosterior post = ConditionSubset(0.5, prior_var, 50, 100, 300);
  const double evidence_var = 0.5 * 0.5 / 100.0;
  EXPECT_NEAR(post.rate_mean, 0.5, 1e-3);
  EXPECT_LT(post.rate_variance, std::min(prior_var, evidence_var));
}

TEST(GpSubsetModelTest, PosteriorMeansTrackRamp) {
  const auto model = MakeModel();
  for (size_t k = 0; k < model.num_subsets(); ++k) {
    EXPECT_NEAR(model.PosteriorMean(k), model.AvgSimilarity(k), 0.05)
        << "subset " << k;
  }
}

TEST(GpSubsetModelTest, MeansClampedToUnitInterval) {
  const auto model = MakeModel();
  for (size_t k = 0; k < model.num_subsets(); ++k) {
    EXPECT_GE(model.PosteriorMean(k), 0.0);
    EXPECT_LE(model.PosteriorMean(k), 1.0);
  }
}

TEST(GpRangeAccumulatorTest, MatchesDirectJointPrediction) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(4, 9);
  // Direct computation via the GP's joint prediction.
  std::vector<double> q, weights;
  for (size_t k = 4; k <= 9; ++k) {
    q.push_back(model.AvgSimilarity(k));
    weights.push_back(model.SubsetSize(k));
  }
  const auto joint = model.gp().PredictJoint(q);
  // Means may differ slightly because the accumulator uses clamped means;
  // on this ramp nothing clamps, so they should agree closely.
  double direct_mean = 0.0;
  for (size_t i = 0; i < q.size(); ++i)
    direct_mean += weights[i] * std::clamp(joint.mean[i], 0.0, 1.0);
  EXPECT_NEAR(acc.TotalMean(), direct_mean, 1e-6);
  EXPECT_NEAR(acc.TotalStdDev(), joint.WeightedTotalStdDev(weights), 1e-6);
}

TEST(GpRangeAccumulatorTest, IncrementalOpsMatchRebuild) {
  const auto model = MakeModel();
  GpRangeAccumulator inc(&model), direct(&model);
  inc.SetRange(5, 10);
  inc.ExtendRight();   // [5, 11]
  inc.ExtendLeft();    // [4, 11]
  inc.ShrinkRight();   // [4, 10]
  inc.ShrinkLeft();    // [5, 10]
  inc.ExtendRight();   // [5, 11]
  direct.SetRange(5, 11);
  EXPECT_NEAR(inc.TotalMean(), direct.TotalMean(), 1e-9);
  EXPECT_NEAR(inc.TotalStdDev(), direct.TotalStdDev(), 1e-9);
  EXPECT_EQ(inc.a(), direct.a());
  EXPECT_EQ(inc.b(), direct.b());
}

TEST(GpRangeAccumulatorTest, ShrinkToEmpty) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(3, 3);
  EXPECT_FALSE(acc.IsEmpty());
  acc.ShrinkLeft();
  EXPECT_TRUE(acc.IsEmpty());
  EXPECT_DOUBLE_EQ(acc.TotalMean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.TotalStdDev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.LowerBound(0.9), 0.0);
}

TEST(GpRangeAccumulatorTest, BoundsBracketMean) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(2, 12);
  const double mean = acc.TotalMean();
  EXPECT_LE(acc.LowerBound(0.9), mean);
  EXPECT_GE(acc.UpperBound(0.9), mean);
  EXPECT_GE(acc.LowerBound(0.9), 0.0);
  EXPECT_LE(acc.UpperBound(0.9), acc.Population());
}

TEST(GpRangeAccumulatorTest, HigherConfidenceWidens) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(2, 12);
  const double narrow = acc.UpperBound(0.8) - acc.LowerBound(0.8);
  const double wide = acc.UpperBound(0.99) - acc.LowerBound(0.99);
  EXPECT_GE(wide, narrow);
}

TEST(GpRangeAccumulatorTest, VarianceShrinksNearObservedSubsets) {
  const auto model = MakeModel();
  // Range consisting of a single observed subset (k=4 is in training) vs a
  // single unobserved one far from training points.
  GpRangeAccumulator observed(&model), unobserved(&model);
  observed.SetRange(4, 4);
  unobserved.SetRange(18, 18);  // k=18 not observed (18 % 4 != 0)
  EXPECT_LT(observed.TotalStdDev(), unobserved.TotalStdDev());
}

TEST(GpRangeAccumulatorTest, ClearResets) {
  const auto model = MakeModel();
  GpRangeAccumulator acc(&model);
  acc.SetRange(1, 5);
  acc.Clear();
  EXPECT_TRUE(acc.IsEmpty());
  EXPECT_DOUBLE_EQ(acc.Population(), 0.0);
}

/// Builds a model where some subsets carry exact observations and the rest
/// independent scatter.
GpSubsetModel MakeModelWithObservations(double scatter_var,
                                        double inflation = 1.0) {
  const size_t m = 10;
  std::vector<double> train_x, train_y;
  std::vector<double> v(m), n(m, 100.0);
  std::vector<stats::Stratum> evidence(m);
  std::vector<double> scatter(m, scatter_var);
  for (size_t k = 0; k < m; ++k) {
    v[k] = (static_cast<double>(k) + 0.5) / static_cast<double>(m);
    if (k % 2 == 0) {
      train_x.push_back(v[k]);
      train_y.push_back(0.5);
      evidence[k] = {100, 100, 50};  // fully inspected: 50 of 100 match
    }
  }
  gp::GpOptions o;
  o.noise_variance = 1e-8;
  auto gp = gp::GpRegression::Fit(gp::Kernel(gp::KernelFamily::kRbf, 0.25, 0.4),
                                  train_x, train_y, o);
  EXPECT_TRUE(gp.ok());
  return ModelFromGp(std::move(*gp), v, n, evidence, scatter, inflation);
}

TEST(GpSubsetModelTest, ExactObservationsOverrideGpMean) {
  const auto model = MakeModelWithObservations(0.0);
  for (size_t k = 0; k < model.num_subsets(); k += 2) {
    EXPECT_TRUE(model.HasEvidence(k));
    EXPECT_DOUBLE_EQ(model.PosteriorMean(k), 0.5);
    EXPECT_EQ(model.IndependentVariance(k), 0.0);
  }
  EXPECT_FALSE(model.HasEvidence(1));
}

TEST(GpRangeAccumulatorTest, ExactOnlyRangeHasZeroVariance) {
  const auto model = MakeModelWithObservations(0.01);
  GpRangeAccumulator acc(&model);
  acc.SetRange(0, 0);  // a single exact subset
  EXPECT_DOUBLE_EQ(acc.TotalStdDev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.TotalMean(), 50.0);  // 100 pairs * 0.5
  EXPECT_DOUBLE_EQ(acc.LowerBound(0.99), acc.UpperBound(0.99));
}

TEST(GpRangeAccumulatorTest, ScatterWidensNonExactRanges) {
  const auto with_scatter = MakeModelWithObservations(0.01);
  const auto without = MakeModelWithObservations(0.0);
  GpRangeAccumulator a(&with_scatter), b(&without);
  a.SetRange(0, 9);
  b.SetRange(0, 9);
  EXPECT_GT(a.TotalStdDev(), b.TotalStdDev());
  // Five non-exact subsets of 100 pairs each at scatter var 0.01:
  // extra variance = 5 * (100^2 * 0.01) = 500.
  const double extra = a.TotalStdDev() * a.TotalStdDev() -
                       b.TotalStdDev() * b.TotalStdDev();
  EXPECT_NEAR(extra, 500.0, 1e-6);
}

TEST(GpRangeAccumulatorTest, VarianceInflationScalesGpPart) {
  const auto plain = MakeModelWithObservations(0.0, 1.0);
  const auto inflated = MakeModelWithObservations(0.0, 4.0);
  GpRangeAccumulator a(&plain), b(&inflated);
  a.SetRange(0, 9);
  b.SetRange(0, 9);
  // Inflation 4 on the GP variance part doubles its std contribution.
  EXPECT_NEAR(b.TotalStdDev(), 2.0 * a.TotalStdDev(), 1e-9);
}

TEST(GpRangeAccumulatorTest, IncrementalOpsHandleExactSubsets) {
  const auto model = MakeModelWithObservations(0.02);
  GpRangeAccumulator inc(&model), direct(&model);
  inc.SetRange(2, 6);
  inc.ExtendLeft();   // adds exact subset 1? (1 is odd -> non-exact)
  inc.ExtendRight();  // adds subset 7
  inc.ShrinkLeft();
  direct.SetRange(2, 7);
  EXPECT_NEAR(inc.TotalMean(), direct.TotalMean(), 1e-9);
  EXPECT_NEAR(inc.TotalStdDev(), direct.TotalStdDev(), 1e-9);
}

/// The range accumulator without the model's precomputed cross-sums: every
/// edge step sums the prior cross terms over the rest of the range, one
/// PriorK call per member. SetRange adds subsets in the production order —
/// a suffix [a, m-1] with a > 0 from m-1 leftward, any other range from a
/// rightward — and the production accumulator must reproduce it bit for
/// bit.
class ReferenceAccumulator {
 public:
  explicit ReferenceAccumulator(const GpSubsetModel* model)
      : model_(model),
        w_sum_(model->gp().num_training_points(), 0.0) {}

  void Clear() {
    empty_ = true;
    a_ = b_ = 0;
    mean_sum_ = prior_q_ = indep_sum_ = pop_sum_ = 0.0;
    std::fill(w_sum_.begin(), w_sum_.end(), 0.0);
  }
  void SetRange(size_t a, size_t b) {
    Clear();
    const size_t m = model_->num_subsets();
    if (a > b || b >= m) return;
    empty_ = false;
    if (a > 0 && b + 1 == m) {
      a_ = b_ = b;
      Update(b, +1.0);
      while (a_ > a) ExtendLeft();
      return;
    }
    a_ = b_ = a;
    Update(a, +1.0);
    while (b_ < b) ExtendRight();
  }
  void ExtendRight() {
    if (empty_) return SetRange(0, 0);
    ++b_;
    Update(b_, +1.0);
  }
  void ExtendLeft() {
    const size_t last = model_->num_subsets() - 1;
    if (empty_) return SetRange(last, last);
    --a_;
    Update(a_, +1.0);
  }
  void ShrinkLeft() {
    if (a_ == b_) return Clear();
    Update(a_, -1.0);
    ++a_;
  }
  void ShrinkRight() {
    if (a_ == b_) return Clear();
    Update(b_, -1.0);
    --b_;
  }

  bool IsEmpty() const { return empty_; }
  size_t a() const { return a_; }
  size_t b() const { return b_; }
  double TotalMean() const {
    return empty_ ? 0.0 : std::clamp(mean_sum_, 0.0, pop_sum_);
  }
  double TotalStdDev() const {
    if (empty_) return 0.0;
    double dot = 0.0;
    for (double x : w_sum_) dot += x * x;
    const double var =
        model_->variance_inflation() * std::max(0.0, prior_q_ - dot) +
        indep_sum_;
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }
  double LowerBound(double confidence) const {
    if (empty_) return 0.0;
    const double z = stats::NormalTwoSidedCritical(confidence);
    return std::max(0.0, TotalMean() - z * TotalStdDev());
  }
  double UpperBound(double confidence) const {
    if (empty_) return 0.0;
    const double z = stats::NormalTwoSidedCritical(confidence);
    return std::min(pop_sum_, TotalMean() + z * TotalStdDev());
  }

 private:
  // Adds (sign +1) or removes (sign -1) edge subset k; [a_, b_] includes k.
  void Update(size_t k, double sign) {
    const double nk = model_->SubsetSize(k);
    const double dmean = nk * model_->PosteriorMean(k);
    if (sign > 0) {
      mean_sum_ += dmean;
      pop_sum_ += nk;
    } else {
      mean_sum_ -= dmean;
      pop_sum_ -= nk;
    }
    if (sign > 0) {
      indep_sum_ += model_->IndependentVariance(k);
    } else {
      indep_sum_ -= model_->IndependentVariance(k);
    }
    if (model_->HasEvidence(k)) return;
    double cross = 0.0;
    for (size_t j = a_; j <= b_; ++j) {
      if (j == k || model_->HasEvidence(j)) continue;
      cross += model_->SubsetSize(j) * model_->PriorK(k, j);
    }
    const double dq = 2.0 * nk * cross + nk * nk * model_->PriorK(k, k);
    const double* wk = model_->W(k);
    if (sign > 0) {
      prior_q_ += dq;
      for (size_t i = 0; i < w_sum_.size(); ++i) w_sum_[i] += nk * wk[i];
    } else {
      prior_q_ -= dq;
      for (size_t i = 0; i < w_sum_.size(); ++i) w_sum_[i] -= nk * wk[i];
    }
  }

  const GpSubsetModel* model_;
  size_t a_ = 0, b_ = 0;
  bool empty_ = true;
  double mean_sum_ = 0.0, prior_q_ = 0.0, indep_sum_ = 0.0, pop_sum_ = 0.0;
  linalg::Vector w_sum_;
};

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Fits one GP on a fixed noisy ramp, independent of the subset count.
gp::GpRegression FitRampGp() {
  const std::vector<double> x = {0.05, 0.2, 0.35, 0.5, 0.62, 0.8, 0.95};
  const std::vector<double> y = {0.02, 0.06, 0.21, 0.48, 0.7, 0.91, 0.97};
  gp::GpOptions o;
  o.noise_variance = 1e-4;
  auto gp = gp::GpRegression::Fit(
      gp::Kernel(gp::KernelFamily::kMatern52, 0.3, 0.25), x, y, o);
  EXPECT_TRUE(gp.ok());
  return std::move(*gp);
}

struct SubsetLayout {
  std::vector<double> v, n, scatter;
  std::vector<stats::Stratum> evidence;
};

/// m subsets with irregular sizes and similarities; `inspected` lists the
/// ones with evidence, alternately fully and half inspected.
SubsetLayout MakeLayout(size_t m, const std::vector<size_t>& inspected) {
  SubsetLayout l;
  l.evidence.resize(m);
  for (size_t k = 0; k < m; ++k) {
    const double t = (static_cast<double>(k) + 0.37) / static_cast<double>(m);
    l.v.push_back(t * t * (3.0 - 2.0 * t));
    l.n.push_back(static_cast<double>(17 + (k * 29) % 83));
    l.scatter.push_back(0.003 + 0.0007 * static_cast<double>(k % 5));
  }
  for (size_t t = 0; t < inspected.size(); ++t) {
    const size_t k = inspected[t];
    const size_t nk = static_cast<size_t>(l.n[k]);
    const size_t s = t % 2 == 0 ? nk : nk / 2;
    l.evidence[k] = {nk, s, s / 4 + k % 3};
  }
  return l;
}

GpSubsetModel MakeLayoutModel(const SubsetLayout& l) {
  return ModelFromGp(FitRampGp(), l.v, l.n, l.evidence, l.scatter, 1.7);
}

/// Applies each operation to both accumulators and checks every output bit
/// for bit after it.
class LockstepChecker {
 public:
  explicit LockstepChecker(const GpSubsetModel* model)
      : acc_(model), ref_(model) {}

  void SetRange(size_t a, size_t b) {
    Step("SetRange(" + std::to_string(a) + ", " + std::to_string(b) + ")",
         [=](auto& x) { x.SetRange(a, b); });
  }
  void Clear() { Step("Clear", [](auto& x) { x.Clear(); }); }
  void ExtendRight() {
    Step(Where("ExtendRight"), [](auto& x) { x.ExtendRight(); });
  }
  void ExtendLeft() {
    Step(Where("ExtendLeft"), [](auto& x) { x.ExtendLeft(); });
  }
  void ShrinkLeft() {
    Step(Where("ShrinkLeft"), [](auto& x) { x.ShrinkLeft(); });
  }
  void ShrinkRight() {
    Step(Where("ShrinkRight"), [](auto& x) { x.ShrinkRight(); });
  }
  bool IsEmpty() const { return acc_.IsEmpty(); }
  size_t a() const { return acc_.a(); }
  size_t b() const { return acc_.b(); }

 private:
  template <typename Op>
  void Step(const std::string& what, Op op) {
    op(acc_);
    op(ref_);
    ASSERT_EQ(acc_.IsEmpty(), ref_.IsEmpty()) << what;
    if (!acc_.IsEmpty()) {
      ASSERT_EQ(acc_.a(), ref_.a()) << what;
      ASSERT_EQ(acc_.b(), ref_.b()) << what;
    }
    EXPECT_EQ(Bits(acc_.TotalMean()), Bits(ref_.TotalMean())) << what;
    EXPECT_EQ(Bits(acc_.TotalStdDev()), Bits(ref_.TotalStdDev())) << what;
    for (double conf : {0.9, 0.974679}) {
      EXPECT_EQ(Bits(acc_.LowerBound(conf)), Bits(ref_.LowerBound(conf)))
          << what << " conf " << conf;
      EXPECT_EQ(Bits(acc_.UpperBound(conf)), Bits(ref_.UpperBound(conf)))
          << what << " conf " << conf;
    }
  }

  std::string Where(const char* op) const {
    if (acc_.IsEmpty()) return std::string(op) + " from empty";
    return std::string(op) + " from [" + std::to_string(acc_.a()) + ", " +
           std::to_string(acc_.b()) + "]";
  }

  GpRangeAccumulator acc_;
  ReferenceAccumulator ref_;
};

/// Evidence placements: none, both ends, the middle, and all three.
std::vector<std::vector<size_t>> EvidencePlacements(size_t m) {
  std::vector<std::vector<size_t>> out = {{}, {0, m - 1}};
  if (m > 2) {
    out.push_back({m / 3, m / 3 + 1, m / 2});
    out.push_back({0, 1, m / 2, m - 2, m - 1});
  }
  return out;
}

TEST(GpRangeAccumulatorTest, AnchoredSweepsMatchReferenceBitForBit) {
  for (size_t m : {size_t{1}, size_t{2}, size_t{37}}) {
    for (const auto& inspected : EvidencePlacements(m)) {
      SCOPED_TRACE("m=" + std::to_string(m) + " inspected=" +
                   std::to_string(inspected.size()));
      const SubsetLayout layout = MakeLayout(m, inspected);
      const GpSubsetModel model = MakeLayoutModel(layout);
      LockstepChecker c(&model);
      for (size_t b = 0; b < m; ++b) c.SetRange(0, b);
      // ShrinkLeft from [0, m-1] (keep, D+) down to empty.
      c.SetRange(0, m - 1);
      while (!c.IsEmpty()) c.ShrinkLeft();
      // ExtendRight from empty (lost) up to [0, m-1].
      for (size_t k = 0; k < m; ++k) c.ExtendRight();
      // ShrinkRight on [0, k] (lost, D-) down to empty.
      while (!c.IsEmpty()) c.ShrinkRight();
      // ExtendLeft from empty into [k, m-1] (D+), then back out.
      for (size_t k = 0; k < m; ++k) c.ExtendLeft();
      while (!c.IsEmpty()) c.ShrinkLeft();
      // SAMP's recall sweep with its one revert step.
      c.SetRange(0, m - 1);
      if (m > 1) {
        c.ShrinkLeft();
        c.ExtendLeft();
      }
    }
  }
}

TEST(GpRangeAccumulatorTest, UnanchoredRangesMatchReferenceBitForBit) {
  const size_t m = 37;
  for (const auto& inspected : EvidencePlacements(m)) {
    SCOPED_TRACE("inspected=" + std::to_string(inspected.size()));
    const SubsetLayout layout = MakeLayout(m, inspected);
    const GpSubsetModel model = MakeLayoutModel(layout);
    LockstepChecker c(&model);
    c.SetRange(5, 30);
    c.ShrinkRight();
    c.ShrinkLeft();
    c.ExtendLeft();
    c.ExtendRight();
    // Grow to touch one end, then step off it again.
    while (c.b() + 1 < m) c.ExtendRight();
    c.ShrinkLeft();
    c.ShrinkRight();
    while (c.a() > 0) c.ExtendLeft();
    c.ShrinkRight();
    c.ShrinkLeft();
    c.SetRange(12, 12);
    c.ExtendLeft();
    c.ExtendRight();
    // SAMP's precision sweep on DH = [i, m-1] with i > 0.
    c.SetRange(9, m - 1);
    while (c.b() > 9) c.ShrinkRight();
    c.ExtendRight();
    c.Clear();
    c.ExtendLeft();
  }
}

TEST(GpRangeAccumulatorTest, HybrAndRiskEdgeRangesMatchReferenceBitForBit) {
  for (size_t m : {size_t{2}, size_t{37}}) {
    for (const auto& inspected : EvidencePlacements(m)) {
      SCOPED_TRACE("m=" + std::to_string(m) + " inspected=" +
                   std::to_string(inspected.size()));
      const SubsetLayout layout = MakeLayout(m, inspected);
      const GpSubsetModel model = MakeLayoutModel(layout);
      LockstepChecker dplus(&model), dminus(&model);
      for (size_t a = 1; a < m; ++a) {
        // RISK's D+ = [j+1, m-1] and D- = [0, i-1], built once.
        dplus.SetRange(a, m - 1);
        dminus.SetRange(0, a - 1);
        // HYBR's D+ and D- as DH grows into them: D+ loses its lowest
        // subset, D- its highest, down to empty.
        while (!dplus.IsEmpty()) dplus.ShrinkLeft();
        while (!dminus.IsEmpty()) dminus.ShrinkRight();
      }
    }
  }
}

}  // namespace
}  // namespace humo::core
