#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/baseline_optimizer.h"
#include "core/hybrid_optimizer.h"
#include "core/partial_sampling_optimizer.h"
#include "core/risk_aware_optimizer.h"
#include "core/solution.h"
#include "data/pair_simulator.h"
#include "data/scale_generator.h"
#include "entity/entity_clustering.h"
#include "eval/entity_metrics.h"
#include "eval/evaluation.h"

namespace humo {
namespace {

/// Seed-pinned end-to-end snapshot: on the calibrated DS/AB realizations
/// (every optimizer) and the 100k-pair scale-generator workload (SAMP and
/// RISK, a certificate that inspects ~18% of the pairs), the solution range,
/// achieved precision/recall, and oracle counters must match the committed
/// golden values EXACTLY — bit-for-bit doubles, not tolerances. Any silent
/// determinism drift (a reordered accumulation, an unordered-container
/// iteration leaking into results, an RNG stream change) fails here even
/// when the per-module tests still pass.
///
/// Regenerating after an INTENTIONAL behavior change:
///   HUMO_PRINT_GOLDEN=1 ./tests/humo_tests
///       --gtest_filter='GoldenRegressionTest.*'   (one command line)
/// and paste the printed table over kGolden below. Review the diff: costs
/// and ranges should move for a reason you can name.
struct GoldenRow {
  const char* workload;
  const char* optimizer;
  bool empty;
  size_t h_lo, h_hi;
  double precision, recall;
  size_t human_cost;
  size_t total_requests;
  size_t duplicate_requests;
  /// Entity-level view of the same resolution: cluster count of the final
  /// labels and pairwise entity precision/recall against the ground-truth
  /// clustering. (The simulated workloads give every pair its own records,
  /// so the entity P/R numerically coincides with the pairwise P/R — the
  /// row still pins that the clustering path itself is deterministic.)
  size_t num_entities;
  double entity_precision, entity_recall;
};

constexpr uint64_t kSeed = 1000;

const GoldenRow kGolden[] = {
    {"DS", "BASE", false, 82, 98, 0.9980732177263969, 0.98479087452471481,
     3400, 3400, 0, 38962, 0.9980732177263969, 0.98479087452471481},
    {"DS", "SAMP", false, 1, 98, 0.99810246679316883, 1, 20000, 20000, 0,
     38946, 0.99810246679316883, 1},
    {"DS", "HYBR", false, 49, 97, 0.98872180451127822, 1, 10200, 10200, 0,
     38936, 0.98872180451127822, 1},
    {"DS", "RISK", false, 1, 98, 0.97294685990338159, 0.95722433460076051,
     7488, 7488, 0, 38965, 0.97294685990338159, 0.95722433460076051},
    {"AB", "BASE", false, 267, 299, 1, 0.94202898550724634, 6600, 6600, 0,
     119805, 1, 0.94202898550724634},
    {"AB", "SAMP", false, 10, 299, 1, 1, 58200, 58200, 0, 119793, 1, 1},
    {"AB", "HYBR", false, 154, 299, 1, 0.99516908212560384, 30200, 30200, 0,
     119794, 1, 0.99516908212560384},
    {"AB", "RISK", false, 10, 299, 1, 0.99033816425120769, 45224, 45224, 0,
     119795, 1, 0.99033816425120769},
    {"S100K", "SAMP", false, 411, 480, 0.93460955269143287,
     0.98619999999999997, 17800, 17800, 0, 194724, 0.93460955269143287,
     0.98619999999999997},
    {"S100K", "RISK", false, 411, 480, 0.93453510436432641,
     0.98499999999999999, 17008, 17008, 0, 194730, 0.93453510436432641,
     0.98499999999999999},
};

struct ActualRow {
  core::HumoSolution solution;
  double precision = 0.0, recall = 0.0;
  size_t human_cost = 0, total_requests = 0, duplicate_requests = 0;
  size_t num_entities = 0;
  double entity_precision = 0.0, entity_recall = 0.0;
};

ActualRow RunOptimizer(const data::Workload& w, const std::string& which) {
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  core::SubsetPartition partition(&w, 200);
  core::Oracle oracle(&w);
  ActualRow row;
  std::vector<int> labels;
  if (which == "RISK") {
    core::RiskAwareOptions options;
    options.sampling.seed = kSeed;
    auto out = core::RiskAwareOptimizer(options).Resolve(partition, req,
                                                         &oracle);
    EXPECT_TRUE(out.ok());
    if (!out.ok()) return row;
    row.solution = out->solution;
    labels = out->resolution.labels;
  } else {
    Result<core::HumoSolution> sol = Status::Internal("unset");
    if (which == "BASE") {
      sol = core::BaselineOptimizer().Optimize(partition, req, &oracle);
    } else if (which == "SAMP") {
      core::PartialSamplingOptions options;
      options.seed = kSeed;
      sol = core::PartialSamplingOptimizer(options).Optimize(partition, req,
                                                             &oracle);
    } else {
      core::HybridOptions options;
      options.sampling.seed = kSeed;
      sol = core::HybridOptimizer(options).Optimize(partition, req, &oracle);
    }
    EXPECT_TRUE(sol.ok());
    if (!sol.ok()) return row;
    row.solution = *sol;
    labels = core::ApplySolution(partition, *sol, &oracle).labels;
  }
  const auto quality = eval::QualityOf(w, labels);
  row.precision = quality.precision;
  row.recall = quality.recall;
  row.human_cost = oracle.cost();
  row.total_requests = oracle.total_requests();
  row.duplicate_requests = oracle.duplicate_requests();
  // Entity view of the same resolution, pinned exactly like the pairwise
  // numbers: clustering the final labels must be deterministic too.
  const entity::EntityClustering clustering =
      entity::EntityClustering::FromLabels(w, labels);
  const eval::EntityQuality entity_quality =
      eval::EntityQualityOf(eval::TruthClustering(w), clustering);
  row.num_entities = clustering.num_entities();
  row.entity_precision = entity_quality.precision;
  row.entity_recall = entity_quality.recall;
  return row;
}

class GoldenRegressionTest : public ::testing::Test {
 protected:
  static data::Workload ds_;
  static data::Workload ab_;
  static data::Workload s100k_;

  static void SetUpTestSuite() {
    ds_ = data::SimulatePairs(data::DsConfigSmall(555, 20000));
    ab_ = data::SimulatePairs(data::AbConfigSmall(1234, 60000));
    data::ScaleWorkloadConfig scale;
    scale.num_pairs = 100000;
    s100k_ = data::GenerateScaleWorkload(scale);
  }
};

data::Workload GoldenRegressionTest::ds_;
data::Workload GoldenRegressionTest::ab_;
data::Workload GoldenRegressionTest::s100k_;

void CheckRow(const data::Workload& w, const GoldenRow& golden) {
  const ActualRow actual = RunOptimizer(w, golden.optimizer);
  if (std::getenv("HUMO_PRINT_GOLDEN") != nullptr) {
    std::printf(
        "    {\"%s\", \"%s\", %s, %zu, %zu, %.17g, %.17g, %zu, %zu, %zu, "
        "%zu, %.17g, %.17g},\n",
        golden.workload, golden.optimizer,
        actual.solution.empty ? "true" : "false", actual.solution.h_lo,
        actual.solution.h_hi, actual.precision, actual.recall,
        actual.human_cost, actual.total_requests, actual.duplicate_requests,
        actual.num_entities, actual.entity_precision, actual.entity_recall);
    return;
  }
  EXPECT_EQ(actual.solution.empty, golden.empty);
  EXPECT_EQ(actual.solution.h_lo, golden.h_lo);
  EXPECT_EQ(actual.solution.h_hi, golden.h_hi);
  EXPECT_EQ(actual.precision, golden.precision);  // exact, not NEAR
  EXPECT_EQ(actual.recall, golden.recall);
  EXPECT_EQ(actual.human_cost, golden.human_cost);
  EXPECT_EQ(actual.total_requests, golden.total_requests);
  EXPECT_EQ(actual.duplicate_requests, golden.duplicate_requests);
  EXPECT_EQ(actual.num_entities, golden.num_entities);
  EXPECT_EQ(actual.entity_precision, golden.entity_precision);
  EXPECT_EQ(actual.entity_recall, golden.entity_recall);
}

/// Checks every kGolden row of `workload` against `w`.
void CheckWorkload(const data::Workload& w, const std::string& workload) {
  for (const GoldenRow& row : kGolden) {
    if (workload != row.workload) continue;
    SCOPED_TRACE(row.optimizer);
    CheckRow(w, row);
  }
}

TEST_F(GoldenRegressionTest, DsSnapshotExact) {
  CheckWorkload(ds_, "DS");
}

TEST_F(GoldenRegressionTest, AbSnapshotExact) {
  CheckWorkload(ab_, "AB");
}

TEST_F(GoldenRegressionTest, Scale100kSnapshotExact) {
  CheckWorkload(s100k_, "S100K");
}

TEST_F(GoldenRegressionTest, RerunIsStable) {
  // The same cell computed twice in one process must agree exactly — the
  // cheap in-process guard against hidden global state; cross-process
  // stability is what the committed kGolden table locks.
  const ActualRow a = RunOptimizer(ds_, "SAMP");
  const ActualRow b = RunOptimizer(ds_, "SAMP");
  EXPECT_EQ(a.solution.h_lo, b.solution.h_lo);
  EXPECT_EQ(a.solution.h_hi, b.solution.h_hi);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.human_cost, b.human_cost);
}

}  // namespace
}  // namespace humo
