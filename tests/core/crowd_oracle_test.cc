#include "core/crowd_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/oracle.h"
#include "data/logistic_generator.h"

namespace humo::core {
namespace {

/// The crowd labels through an Oracle: the oracle remembers and counts the
/// verdicts, the crowd only adjudicates pairs it never judged.
Oracle Ledger(const data::Workload& w, CrowdOracle* crowd) {
  Oracle oracle(&w);
  oracle.SetAnswerProvider(crowd->Provider());
  return oracle;
}

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
  Oracle oracle = Ledger(w, &crowd);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(oracle.Label(i), w[i].is_match);
  }
  EXPECT_DOUBLE_EQ(crowd.VerdictErrorRate(), 0.0);
}

TEST(CrowdOracleTest, CostCountsWorkerAnswers) {
  const data::Workload w = MakeWorkload(1000);
  CrowdOptions o;
  o.workers_per_pair = 5;
  CrowdOracle crowd(&w, o);
  Oracle oracle = Ledger(w, &crowd);
  oracle.Label(0);
  oracle.Label(1);
  oracle.Label(0);  // remembered by the oracle: no extra cost
  EXPECT_EQ(crowd.worker_answers(), 10u);
  EXPECT_EQ(crowd.pairs_adjudicated(), 2u);
}

TEST(CrowdOracleTest, VerdictsAreStableAcrossRequeries) {
  const data::Workload w = MakeWorkload(500);
  CrowdOptions o;
  o.worker_error_rate = 0.4;
  CrowdOracle crowd(&w, o);
  Oracle oracle = Ledger(w, &crowd);
  std::vector<bool> first;
  for (size_t i = 0; i < 100; ++i) first.push_back(oracle.Label(i));
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(oracle.Label(i), first[i]);
  EXPECT_EQ(crowd.pairs_adjudicated(), 100u);
}

TEST(CrowdOracleTest, MajorityVoteBeatsSingleWorker) {
  const data::Workload w = MakeWorkload(20000);
  CrowdOptions one;
  one.workers_per_pair = 1;
  one.worker_error_rate = 0.2;
  CrowdOptions five = one;
  five.workers_per_pair = 5;
  CrowdOracle single(&w, one), majority(&w, five);
  Oracle single_oracle = Ledger(w, &single);
  Oracle majority_oracle = Ledger(w, &majority);
  for (size_t i = 0; i < w.size(); ++i) {
    single_oracle.Label(i);
    majority_oracle.Label(i);
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
  Oracle oracle = Ledger(w, &crowd);
  for (size_t i = 0; i < w.size(); ++i) oracle.Label(i);
  // P(>=2 of 3 wrong) = 3 * 0.1^2 * 0.9 + 0.1^3 = 0.028.
  EXPECT_NEAR(crowd.VerdictErrorRate(), 0.028, 0.008);
}

TEST(CrowdOracleTest, DeterministicUnderSeed) {
  const data::Workload w = MakeWorkload(500);
  CrowdOptions o;
  o.worker_error_rate = 0.3;
  o.seed = 99;
  CrowdOracle a(&w, o), b(&w, o);
  Oracle oa = Ledger(w, &a), ob = Ledger(w, &b);
  for (size_t i = 0; i < 200; ++i) EXPECT_EQ(oa.Label(i), ob.Label(i));
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
  Ledger(w, &crowd).Label(0);
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
  Oracle oa = Ledger(w, &a), ob = Ledger(w, &b);
  for (size_t i = 0; i < 500; ++i) EXPECT_EQ(oa.Label(i), ob.Label(i));
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
  Oracle majority_oracle = Ledger(w, &majority), em_oracle = Ledger(w, &em);
  // Same seed, same pool, same votes — only the fold differs. Batched so
  // the EM history grows in realistic task-sized purchases.
  std::vector<size_t> chunk;
  for (size_t begin = 0; begin < w.size(); begin += 1000) {
    chunk.clear();
    for (size_t i = begin; i < std::min(begin + 1000, w.size()); ++i) {
      chunk.push_back(i);
    }
    majority_oracle.InspectBatch(chunk);
    em_oracle.InspectBatch(chunk);
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
  Oracle oa = Ledger(w, &a), ob = Ledger(w, &b);
  // Below the threshold every verdict must equal the majority fold.
  for (size_t i = 0; i < 49; ++i) EXPECT_EQ(oa.Label(i), ob.Label(i));
  EXPECT_TRUE(a.worker_error_estimates().empty());
}

TEST(CrowdOracleTest, DawidSkeneIsDeterministic) {
  const data::Workload w = MakeWorkload(1000);
  CrowdOptions ds = PoolOptions();
  ds.aggregation = CrowdAggregation::kDawidSkene;
  CrowdOracle a(&w, ds), b(&w, ds);
  std::vector<size_t> all(w.size());
  for (size_t i = 0; i < w.size(); ++i) all[i] = i;
  EXPECT_EQ(Ledger(w, &a).InspectBatch(all), Ledger(w, &b).InspectBatch(all));
  ASSERT_EQ(a.worker_error_estimates().size(),
            b.worker_error_estimates().size());
  for (size_t wk = 0; wk < a.worker_error_estimates().size(); ++wk) {
    EXPECT_EQ(a.worker_error_estimates()[wk], b.worker_error_estimates()[wk]);
  }
}

/// A fixed request sequence with repeats inside and across batches, single
/// labels and a descending batch.
std::vector<std::vector<size_t>> GoldenRequests() {
  std::vector<std::vector<size_t>> seq;
  std::vector<size_t> a;
  for (size_t i = 0; i < 300; ++i) {
    a.push_back(i);
    if (i % 50 == 5) a.push_back(i - 3);
  }
  seq.push_back(a);
  seq.push_back({300});
  seq.push_back({5});
  seq.push_back({301});
  std::vector<size_t> b;
  for (size_t i = 250; i < 600; ++i) b.push_back(i);
  seq.push_back(b);
  std::vector<size_t> c;
  for (size_t i = 0; i < 2000; i += 7) c.push_back(i);
  seq.push_back(c);
  std::vector<size_t> d;
  for (size_t i = 1999; i >= 1500; --i) d.push_back(i);
  seq.push_back(d);
  return seq;
}

TEST(CrowdOracleTest, VerdictGoldenOnHeterogeneousPool) {
  // Pinned values of the fold at worker error > 0 (bench_crowd runs at
  // error 0 and cannot see a changed fold): the FNV-1a checksum of every
  // served answer, the worker answers bought and the Dawid-Skene worker
  // error estimates. Any change to purchase order, vote draws, the fold or
  // the oracle's dedup of repeats moves at least one of them.
  const data::Workload w = MakeWorkload(2000);
  const std::vector<double> kGoldenEstimates = {
      0x1.75efa278efb72p-3, 0x1.0aa4065c5391cp-3, 0x1.60d4807a73812p-2,
      0x1.fed231ec90924p-4, 0x1.49650175f9f96p-2, 0x1.c54b246a3c81p-2,
      0x1.ca555a9930b94p-3, 0x1.185dc2d806e3p-3,  0x1.f23c9ae54bea7p-2,
      0x1.b9c31c987424p-3,  0x1.1c7ce6f68cd66p-2, 0x1.ccdd2accc3b7cp-4,
      0x1.273bf734c60ap-3,  0x1.5f82436bd86d5p-2, 0x1.4c1cf53b1d9ecp-4,
      0x1.6916af11d077bp-2, 0x1.bfe86c4948908p-3, 0x1.c7ab442c5849ap-3,
      0x1.59c8bb7bc1942p-3, 0x1.4590274f37a66p-3, 0x1.b28079715d8f8p-4,
      0x1.6610cbf947473p-2, 0x1.baab1b7df928ap-3, 0x1.f71cf7a6378dcp-3,
      0x1.b90106ce2f72cp-2};
  for (const bool ds : {false, true}) {
    CrowdOptions o = PoolOptions();
    if (ds) o.aggregation = CrowdAggregation::kDawidSkene;
    CrowdOracle crowd(&w, o);
    Oracle oracle = Ledger(w, &crowd);
    uint64_t checksum = 14695981039346656037ULL;
    size_t served = 0;
    for (const std::vector<size_t>& request : GoldenRequests()) {
      const std::vector<char> answers =
          request.size() == 1
              ? std::vector<char>{static_cast<char>(oracle.Label(request[0]))}
              : oracle.InspectBatch(request);
      for (const char a : answers) {
        checksum = (checksum ^ static_cast<uint64_t>(a)) * 1099511628211ULL;
        ++served;
      }
    }
    SCOPED_TRACE(ds ? "dawid-skene" : "majority");
    EXPECT_EQ(served, 1445u);
    EXPECT_EQ(checksum,
              ds ? 0xda68f29db4578edaULL : 0xea52f90fefca552aULL);
    EXPECT_EQ(crowd.worker_answers(), 3687u);
    EXPECT_EQ(crowd.pairs_adjudicated(), 1229u);
    EXPECT_EQ(oracle.cost(), 1229u);
    EXPECT_EQ(crowd.VerdictErrorRate(),
              ds ? 0x1.9699b99844528p-4 : 0x1.199eeeb60dbf7p-3);
    if (ds) {
      EXPECT_EQ(crowd.worker_error_estimates(), kGoldenEstimates);
    } else {
      EXPECT_TRUE(crowd.worker_error_estimates().empty());
    }
  }
}

}  // namespace
}  // namespace humo::core
