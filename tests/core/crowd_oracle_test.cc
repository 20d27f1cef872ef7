#include "core/crowd_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/logistic_generator.h"

namespace humo::core {
namespace {

data::Workload MakeWorkload(size_t n = 10000) {
  data::LogisticGeneratorOptions o;
  o.num_pairs = n;
  o.pairs_per_subset = 100;
  return data::GenerateLogisticWorkload(o);
}

TEST(CrowdOracleTest, PerfectWorkersGiveGroundTruth) {
  const data::Workload w = MakeWorkload(1000);
  CrowdOptions o;
  o.worker_error_rate = 0.0;
  CrowdOracle crowd(&w, o);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(crowd.Label(i), w[i].is_match);
  }
  EXPECT_DOUBLE_EQ(crowd.VerdictErrorRate(), 0.0);
}

TEST(CrowdOracleTest, CostCountsWorkerAnswers) {
  const data::Workload w = MakeWorkload(1000);
  CrowdOptions o;
  o.workers_per_pair = 5;
  CrowdOracle crowd(&w, o);
  crowd.Label(0);
  crowd.Label(1);
  crowd.Label(0);  // cached: no extra cost
  EXPECT_EQ(crowd.worker_answers(), 10u);
  EXPECT_EQ(crowd.pairs_adjudicated(), 2u);
}

TEST(CrowdOracleTest, VerdictsAreStableAcrossRequeries) {
  const data::Workload w = MakeWorkload(500);
  CrowdOptions o;
  o.worker_error_rate = 0.4;
  CrowdOracle crowd(&w, o);
  std::vector<bool> first;
  for (size_t i = 0; i < 100; ++i) first.push_back(crowd.Label(i));
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(crowd.Label(i), first[i]);
}

TEST(CrowdOracleTest, MajorityVoteBeatsSingleWorker) {
  const data::Workload w = MakeWorkload(20000);
  CrowdOptions one;
  one.workers_per_pair = 1;
  one.worker_error_rate = 0.2;
  CrowdOptions five = one;
  five.workers_per_pair = 5;
  CrowdOracle single(&w, one), majority(&w, five);
  for (size_t i = 0; i < w.size(); ++i) {
    single.Label(i);
    majority.Label(i);
  }
  // e=0.2: single-worker error 20%; 5-vote majority error ~5.8%.
  EXPECT_NEAR(single.VerdictErrorRate(), 0.2, 0.02);
  EXPECT_NEAR(majority.VerdictErrorRate(), 0.058, 0.02);
  EXPECT_LT(majority.VerdictErrorRate(), single.VerdictErrorRate());
}

TEST(CrowdOracleTest, VerdictErrorMatchesBinomialTheory) {
  const data::Workload w = MakeWorkload(20000);
  CrowdOptions o;
  o.workers_per_pair = 3;
  o.worker_error_rate = 0.1;
  CrowdOracle crowd(&w, o);
  for (size_t i = 0; i < w.size(); ++i) crowd.Label(i);
  // P(>=2 of 3 wrong) = 3 * 0.1^2 * 0.9 + 0.1^3 = 0.028.
  EXPECT_NEAR(crowd.VerdictErrorRate(), 0.028, 0.008);
}

TEST(CrowdOracleTest, DeterministicUnderSeed) {
  const data::Workload w = MakeWorkload(500);
  CrowdOptions o;
  o.worker_error_rate = 0.3;
  o.seed = 99;
  CrowdOracle a(&w, o), b(&w, o);
  for (size_t i = 0; i < 200; ++i) EXPECT_EQ(a.Label(i), b.Label(i));
}

TEST(CrowdOracleTest, OptionsAreValidatedInEveryBuildMode) {
  // These used to be Debug-only asserts: a Release build would silently run
  // an even jury (majority ties break toward non-match) or a nonsense error
  // rate. The clamping below is the pinned contract.
  CrowdOptions o;
  o.workers_per_pair = 4;  // even: round UP to the next odd count
  o.worker_error_rate = 1.7;
  o.worker_error_spread = 0.9;
  o.worker_pool = 2;  // smaller than one pair's jury
  o.ds_em_iterations = 0;
  const CrowdOptions v = ValidateCrowdOptions(o);
  EXPECT_EQ(v.workers_per_pair, 5u);
  EXPECT_DOUBLE_EQ(v.worker_error_rate, 1.0);
  EXPECT_DOUBLE_EQ(v.worker_error_spread, 0.5);
  EXPECT_EQ(v.worker_pool, 5u);
  EXPECT_EQ(v.ds_em_iterations, 1u);

  CrowdOptions z;
  z.workers_per_pair = 0;
  z.worker_error_rate = -0.5;
  const CrowdOptions vz = ValidateCrowdOptions(z);
  EXPECT_EQ(vz.workers_per_pair, 1u);
  EXPECT_DOUBLE_EQ(vz.worker_error_rate, 0.0);

  CrowdOptions n;
  n.worker_error_rate = std::nan("");
  n.worker_error_spread = std::nan("");
  const CrowdOptions vn = ValidateCrowdOptions(n);
  EXPECT_DOUBLE_EQ(vn.worker_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(vn.worker_error_spread, 0.0);

  // The constructor applies the same validation — the oracle never runs on
  // raw out-of-range options.
  const data::Workload w = MakeWorkload(100);
  CrowdOracle crowd(&w, o);
  EXPECT_EQ(crowd.options().workers_per_pair, 5u);
  crowd.Label(0);
  EXPECT_EQ(crowd.worker_answers(), 5u);
}

CrowdOptions PoolOptions() {
  CrowdOptions o;
  o.worker_pool = 25;
  o.workers_per_pair = 3;
  o.worker_error_rate = 0.25;
  o.worker_error_spread = 0.2;
  o.seed = 7;
  return o;
}

TEST(CrowdOracleTest, WorkerPoolIsDeterministicAndHeterogeneous) {
  const data::Workload w = MakeWorkload(2000);
  const CrowdOptions o = PoolOptions();
  CrowdOracle a(&w, o), b(&w, o);
  for (size_t i = 0; i < 500; ++i) EXPECT_EQ(a.Label(i), b.Label(i));
  EXPECT_EQ(a.worker_answers(), b.worker_answers());

  // Planted per-worker errors stay in [0, 0.49] and actually spread out.
  double lo = 1.0, hi = 0.0;
  for (size_t wk = 0; wk < o.worker_pool; ++wk) {
    const double e = a.PlantedWorkerError(wk);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 0.49);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  EXPECT_GT(hi - lo, 0.1);
}

TEST(CrowdOracleTest, DawidSkeneBeatsMajorityOnHeterogeneousPool) {
  const data::Workload w = MakeWorkload(4000);
  const CrowdOptions base = PoolOptions();
  CrowdOptions ds = base;
  ds.aggregation = CrowdAggregation::kDawidSkene;
  CrowdOracle majority(&w, base), em(&w, ds);
  // Same seed, same pool, same votes — only the fold differs. Batched so
  // the EM history grows in realistic task-sized purchases.
  std::vector<size_t> chunk;
  for (size_t begin = 0; begin < w.size(); begin += 1000) {
    chunk.clear();
    for (size_t i = begin; i < std::min(begin + 1000, w.size()); ++i) {
      chunk.push_back(i);
    }
    majority.InspectBatch(chunk);
    em.InspectBatch(chunk);
  }
  EXPECT_EQ(majority.worker_answers(), em.worker_answers());
  EXPECT_LT(em.VerdictErrorRate(), majority.VerdictErrorRate())
      << "majority " << majority.VerdictErrorRate() << " vs DS "
      << em.VerdictErrorRate();

  // And the EM's per-worker estimates track the planted error rates.
  const std::vector<double>& est = em.worker_error_estimates();
  ASSERT_EQ(est.size(), base.worker_pool);
  double mean_abs_dev = 0.0;
  for (size_t wk = 0; wk < base.worker_pool; ++wk) {
    mean_abs_dev += std::fabs(est[wk] - em.PlantedWorkerError(wk));
  }
  mean_abs_dev /= static_cast<double>(base.worker_pool);
  EXPECT_LT(mean_abs_dev, 0.06);
}

TEST(CrowdOracleTest, DawidSkeneFallsBackToMajorityOnThinEvidence) {
  const data::Workload w = MakeWorkload(500);
  CrowdOptions ds = PoolOptions();
  ds.aggregation = CrowdAggregation::kDawidSkene;
  ds.ds_min_adjudicated = 50;
  CrowdOptions maj = PoolOptions();
  CrowdOracle a(&w, ds), b(&w, maj);
  // Below the threshold every verdict must equal the majority fold.
  for (size_t i = 0; i < 49; ++i) EXPECT_EQ(a.Label(i), b.Label(i));
  EXPECT_TRUE(a.worker_error_estimates().empty());
}

TEST(CrowdOracleTest, DawidSkeneIsDeterministic) {
  const data::Workload w = MakeWorkload(1000);
  CrowdOptions ds = PoolOptions();
  ds.aggregation = CrowdAggregation::kDawidSkene;
  CrowdOracle a(&w, ds), b(&w, ds);
  std::vector<size_t> all(w.size());
  for (size_t i = 0; i < w.size(); ++i) all[i] = i;
  EXPECT_EQ(a.InspectBatch(all), b.InspectBatch(all));
  ASSERT_EQ(a.worker_error_estimates().size(),
            b.worker_error_estimates().size());
  for (size_t wk = 0; wk < a.worker_error_estimates().size(); ++wk) {
    EXPECT_EQ(a.worker_error_estimates()[wk], b.worker_error_estimates()[wk]);
  }
}

}  // namespace
}  // namespace humo::core
