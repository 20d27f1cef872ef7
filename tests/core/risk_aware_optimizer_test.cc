#include "core/risk_aware_optimizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/estimation_engine.h"
#include "core/partial_sampling_optimizer.h"
#include "core/risk_model.h"
#include "core/solution.h"
#include "data/pair_simulator.h"
#include "eval/evaluation.h"
#include "gp/kernel.h"

namespace humo::core {
namespace {

/// Small GP subset model over a logistic-ish proportion curve: 10 subsets
/// of 100 pairs each, none of them inspected.
std::shared_ptr<GpSubsetModel> MakeModel() {
  std::vector<double> xs = {0.1, 0.3, 0.5, 0.7, 0.9};
  std::vector<double> ys = {0.0, 0.1, 0.5, 0.9, 1.0};
  auto gp = gp::GpRegression::Fit(gp::Kernel(gp::KernelFamily::kRbf, 0.5, 0.25),
                                  xs, ys);
  EXPECT_TRUE(gp.ok());
  std::vector<double> v, n;
  std::vector<double> scatter(10, 1e-4);
  for (size_t k = 0; k < 10; ++k) {
    v.push_back(0.05 + 0.1 * static_cast<double>(k));
    n.push_back(100.0);
  }
  std::vector<linalg::Vector> whitened;
  const std::vector<gp::Prediction> preds = gp->PredictBatch(v, &whitened);
  return std::make_shared<GpSubsetModel>(
      std::move(*gp), std::move(v), std::move(n), preds, std::move(whitened),
      std::vector<stats::Stratum>{}, std::move(scatter), 1.0);
}

TEST(RiskModelTest, GpPriorServesUntilEvidenceContradictsIt) {
  auto model = MakeModel();
  RiskModel risk(model.get(), 0, 9);
  // No evidence: the posterior is the GP prior, so means follow the fitted
  // curve.
  EXPECT_LT(risk.PosteriorMean(0), 0.2);
  EXPECT_GT(risk.PosteriorMean(9), 0.8);
  EXPECT_FALSE(risk.MachineLabelsMatch(0));
  EXPECT_TRUE(risk.MachineLabelsMatch(9));
  // Overwhelming direct evidence contradicting the GP widens the prior and
  // takes over.
  const double before = risk.PosteriorMean(9);
  risk.SetEvidence(9, 90, 9);  // only 10% matches among 90 inspected
  EXPECT_LT(risk.PosteriorMean(9), 0.2);
  EXPECT_FALSE(risk.MachineLabelsMatch(9));
  EXPECT_LT(risk.PosteriorMean(9), before);
}

TEST(RiskModelTest, PairRiskPeaksAtTheTransitionAndDiesWhenInspected) {
  auto model = MakeModel();
  RiskModel risk(model.get(), 0, 9);
  // The transition subset (proportion ~0.5) is the riskiest per pair.
  const double edge = risk.PairRisk(0, 0.95);
  const double middle = risk.PairRisk(4, 0.95);
  EXPECT_GT(middle, edge);
  // A fully inspected subset has no machine-labeled pairs: zero risk.
  risk.SetEvidence(4, 100, 52);
  EXPECT_EQ(risk.PairRisk(4, 0.95), 0.0);
  EXPECT_EQ(risk.InspectedMatches(4), 52u);
}

TEST(RiskModelTest, AggregateSplitsByMachineLabelAndHonorsEvidence) {
  auto model = MakeModel();
  RiskModel risk(model.get(), 0, 9);
  const auto all = risk.Aggregate();
  EXPECT_DOUBLE_EQ(all.match_pairs + all.unmatch_pairs, 1000.0);
  EXPECT_GT(all.match_pairs, 0.0);
  EXPECT_GT(all.unmatch_pairs, 0.0);
  // Inspecting everything empties the aggregate.
  for (size_t k = 0; k <= 9; ++k) risk.SetEvidence(k, 100, k >= 5 ? 95 : 2);
  const auto none = risk.Aggregate();
  EXPECT_EQ(none.match_pairs + none.unmatch_pairs, 0.0);
  EXPECT_EQ(risk.TotalUninspected(), 0u);
  EXPECT_EQ(risk.TotalInspectedMatches(), 5u * 95u + 5u * 2u);
}

class RiskAwareOptimizerTest : public ::testing::Test {
 protected:
  static data::Workload ds_;
  static data::Workload ab_;
  static void SetUpTestSuite() {
    ds_ = data::SimulatePairs(data::DsConfigSmall());
    ab_ = data::SimulatePairs(data::AbConfigSmall());
  }
};

data::Workload RiskAwareOptimizerTest::ds_;
data::Workload RiskAwareOptimizerTest::ab_;

/// The acceptance contract of the PR: on the DS and AB seeded workloads,
/// RISK meets the same quality guarantee as SAMP at equal confidence while
/// issuing fewer oracle inspections — asserted through the oracle's
/// distinct-pair request counter, the paper's human-cost metric.
TEST_F(RiskAwareOptimizerTest, MeetsGuaranteeWithFewerInspectionsThanSampDs) {
  SubsetPartition p(&ds_, 200);
  const QualityRequirement req{0.9, 0.9, 0.9};

  Oracle samp_oracle(&ds_);
  PartialSamplingOptions po;
  auto sol = PartialSamplingOptimizer(po).Optimize(p, req, &samp_oracle);
  ASSERT_TRUE(sol.ok());
  const auto samp_res = ApplySolution(p, *sol, &samp_oracle);
  const size_t samp_cost = samp_oracle.cost();

  Oracle risk_oracle(&ds_);
  RiskAwareOptions ro;  // same default sampling configuration as SAMP
  auto out = RiskAwareOptimizer(ro).Resolve(p, req, &risk_oracle);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->certified);
  EXPECT_LT(risk_oracle.cost(), samp_cost);
  EXPECT_GT(out->inspection.pairs_machine_labeled, 0u);

  const auto q = eval::QualityOf(ds_, out->resolution.labels);
  EXPECT_GE(q.precision, req.alpha);
  EXPECT_GE(q.recall, req.beta);
  // The sampling phases were identical, so the saving is exactly the
  // machine-labeled remainder of DH.
  EXPECT_EQ(samp_cost - risk_oracle.cost(),
            out->inspection.pairs_machine_labeled);
  (void)samp_res;
}

TEST_F(RiskAwareOptimizerTest, MeetsGuaranteeWithFewerInspectionsThanSampAb) {
  SubsetPartition p(&ab_, 200);
  const QualityRequirement req{0.9, 0.9, 0.9};

  Oracle samp_oracle(&ab_);
  auto sol = PartialSamplingOptimizer().Optimize(p, req, &samp_oracle);
  ASSERT_TRUE(sol.ok());
  ApplySolution(p, *sol, &samp_oracle);
  const size_t samp_cost = samp_oracle.cost();

  Oracle risk_oracle(&ab_);
  auto out = RiskAwareOptimizer().Resolve(p, req, &risk_oracle);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->certified);
  EXPECT_LT(risk_oracle.cost(), samp_cost);

  const auto q = eval::QualityOf(ab_, out->resolution.labels);
  EXPECT_GE(q.precision, req.alpha);
  EXPECT_GE(q.recall, req.beta);
}

/// Confidence semantics across workload realizations: the guarantee must
/// hold on (at least) roughly a theta fraction of re-simulated workloads.
TEST_F(RiskAwareOptimizerTest, GuaranteeHoldsAcrossRealizations) {
  const QualityRequirement req{0.9, 0.9, 0.9};
  size_t success = 0;
  const size_t trials = 10;
  for (uint64_t t = 0; t < trials; ++t) {
    const data::Workload w =
        data::SimulatePairs(data::DsConfigSmall(/*seed=*/700 + t));
    SubsetPartition p(&w, 200);
    Oracle oracle(&w);
    auto out = RiskAwareOptimizer().Resolve(p, req, &oracle);
    ASSERT_TRUE(out.ok());
    const auto q = eval::QualityOf(w, out->resolution.labels);
    if (q.precision >= req.alpha && q.recall >= req.beta) ++success;
  }
  // theta = 0.9; allow sampling slack down to 0.8 over 10 trials.
  EXPECT_GE(success, 8u);
}

TEST_F(RiskAwareOptimizerTest, ChainedAfterSampIssuesZeroDuplicateRequests) {
  SubsetPartition p(&ds_, 200);
  const QualityRequirement req{0.9, 0.9, 0.9};
  Oracle oracle(&ds_);
  EstimationContext ctx(&p, &oracle);

  auto s0 = PartialSamplingOptimizer().OptimizeDetailed(&ctx, req);
  ASSERT_TRUE(s0.ok());
  const size_t samp_cost = oracle.cost();

  auto out = RiskAwareOptimizer().Resolve(&ctx, req);
  ASSERT_TRUE(out.ok());
  // The stored S0 outcome is reused — no second sampling pass — and every
  // request the risk loop issued was for a fresh pair.
  EXPECT_EQ(oracle.duplicate_requests(), 0u);
  EXPECT_EQ(oracle.cost() - samp_cost, out->inspection.pairs_inspected);
}

TEST_F(RiskAwareOptimizerTest, BitIdenticalAtAnyThreadCount) {
  const QualityRequirement req{0.9, 0.9, 0.9};
  SubsetPartition p(&ds_, 200);
  std::vector<int> labels[2];
  size_t costs[2];
  double plb[2], rlb[2];
  size_t t = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool::SetGlobalThreads(threads);
    Oracle oracle(&ds_);
    auto out = RiskAwareOptimizer().Resolve(p, req, &oracle);
    ASSERT_TRUE(out.ok());
    labels[t] = out->resolution.labels;
    costs[t] = oracle.cost();
    plb[t] = out->precision_lb;
    rlb[t] = out->recall_lb;
    ++t;
  }
  ThreadPool::SetGlobalThreads(0);  // restore the environment default
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(plb[0], plb[1]);  // bitwise
  EXPECT_EQ(rlb[0], rlb[1]);
}

TEST_F(RiskAwareOptimizerTest, RejectsBadInputs) {
  SubsetPartition p(&ds_, 200);
  const QualityRequirement req{0.9, 0.9, 0.9};
  const RiskAwareOptimizer opt;
  EXPECT_EQ(opt.Resolve(nullptr, req).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(opt.Resolve(p, req, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  const data::Workload empty;
  SubsetPartition pe(&empty, 200);
  Oracle oracle(&empty);
  EXPECT_EQ(opt.Resolve(pe, req, &oracle).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace humo::core
