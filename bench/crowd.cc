// Budget-to-guarantee curves with a TASK-denominated cost axis: the SAMP
// and RISK certifications whose oracle cost bench_paper gates, but with
// every human question routed through the crowd task layer
// (core/crowd_tasks.h): cluster-packed HITs over a simulated CrowdOracle,
// transitivity / anti-transitivity inference answering correlated pairs
// for free.
//
// Workloads:
//   DS / AB   the paper's Fig. 6 simulations. Their generators emit
//             degree-1 records (no two pairs share a record), so inference
//             finds nothing — the task-cost reduction there is pure HIT
//             packing, and the rows pin that packing alone clears the 20%
//             bar.
//   ENT       entity-graph workload (latent clusters, transitively
//             consistent truth, shared records): packing AND inference
//             both contribute, and the inferred-answer fraction is the
//             headline number.
//
// The bench CHECKS the contracts it advertises and exits nonzero on
// violation, so the committed BENCH_crowd.json cannot silently go stale:
//   - certified:        each run meets alpha = beta = theta = 0.9;
//   - tasks <= questions  (a HIT holds at least one pair);
//   - task_reduction >= 0.20 on every row (the acceptance bar — in
//     practice packing alone clears ~0.9);
//   - ENT inferred_fraction >= 0.20 under SAMP (full-DH certification,
//     where intra-cluster redundancy is actually inspected) and >= 0.10
//     under RISK (risk-ordered partial inspection buys fewer redundant
//     pairs by design, so less is inferable);
//   - thread_invariant: the full pipeline replays bit-identically at 1 and
//     4 threads (labels, counters, and crowd stats);
//   - every question is either purchased or inferred, and nothing is
//     inferred on DS/AB (degree-1 records share no record to infer over);
//   - six rows: {DS, AB, ENT} x {SAMP, RISK}.
//
// Workloads: bench::ContractDs() and bench::ContractAb() (DS 20k, AB 60k),
// plus the ENT row below; sampling seed bench::kBaseSeed.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;

namespace {

// ENT entity-graph target size, in pairs.
constexpr size_t kEntPairs = 20000;
// Pairs per HIT.
constexpr size_t kTaskCapacity = 10;
// Workers judging each pair.
constexpr size_t kWorkersPerPair = 3;
// Per-worker error rate: the guarantee contract assumes a crowd whose
// verdicts match the expert's.
constexpr double kWorkerErrorRate = 0.0;

struct Row {
  std::string workload;
  std::string certifier;  // SAMP | RISK
  size_t pairs = 0;
  size_t questions = 0;  // oracle.cost(): distinct pairs asked of the human
  size_t tasks_posted = 0;
  size_t pairs_purchased = 0;
  size_t pairs_inferred = 0;
  size_t worker_answers = 0;
  double inferred_fraction = 0.0;
  double task_reduction = 0.0;  // 1 - tasks / questions
  double precision = 0.0;
  double recall = 0.0;
  bool certified = false;
  bool tasks_le_questions = false;
  bool thread_invariant = false;
};

struct RunOutcome {
  std::vector<int> labels;
  size_t questions = 0;
  double precision = 0.0;
  double recall = 0.0;
  bool ok = false;
  core::CrowdTaskStats stats;
};

bool SameOutcome(const RunOutcome& a, const RunOutcome& b) {
  return a.ok == b.ok && a.labels == b.labels && a.questions == b.questions &&
         a.precision == b.precision && a.recall == b.recall &&
         a.stats.tasks_posted == b.stats.tasks_posted &&
         a.stats.pairs_purchased == b.stats.pairs_purchased &&
         a.stats.pairs_inferred_match == b.stats.pairs_inferred_match &&
         a.stats.pairs_inferred_nonmatch == b.stats.pairs_inferred_nonmatch &&
         a.stats.worker_answers == b.stats.worker_answers;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_crowd — budget-to-guarantee with task-denominated crowd cost",
      "CrowdER-style HIT packing + transitive inference over the §IX crowd "
      "direction");

  const uint64_t seed = bench::kBaseSeed;
  const double target = 0.9;
  const core::QualityRequirement req{target, target, target};

  core::CrowdOptions crowd_options;
  crowd_options.workers_per_pair = kWorkersPerPair;
  crowd_options.worker_error_rate = kWorkerErrorRate;

  std::vector<Row> rows;
  bool contract_ok = true;
  auto check = [&](bool ok, const char* what, const Row& r) {
    if (!ok) {
      std::fprintf(stderr, "CONTRACT VIOLATION: %s %s: %s\n",
                   r.workload.c_str(), r.certifier.c_str(), what);
      contract_ok = false;
    }
  };

  struct WorkloadSpec {
    std::string name;
    data::Workload workload;
    core::CrowdTaskOptions task_options;
  };
  std::vector<WorkloadSpec> specs;
  {
    core::CrowdTaskOptions two_table;
    two_table.task_capacity = kTaskCapacity;
    specs.push_back(
        {"DS", data::SimulatePairs(bench::ContractDs()), two_table});
    specs.push_back(
        {"AB", data::SimulatePairs(bench::ContractAb()), two_table});
    // ENT: one table, shared records — denser intra-entity redundancy than
    // the entity-layer default so transitive closure has edges to spend.
    data::EntityGraphConfig cfg = data::EntityGraphConfigForPairs(kEntPairs);
    cfg.extra_intra_fraction = 1.5;
    core::CrowdTaskOptions dedup = two_table;
    dedup.left_source = cfg.source;
    dedup.right_source = cfg.source;
    specs.push_back(
        {"ENT", std::move(data::GenerateEntityGraph(cfg).workload), dedup});
  }

  for (const WorkloadSpec& spec : specs) {
    const data::Workload& w = spec.workload;
    const core::SubsetPartition partition(&w, 200);
    std::printf("%s: %zu pairs, %zu matches, %zu subsets\n",
                spec.name.c_str(), w.size(), w.CountMatches(),
                partition.num_subsets());

    for (const char* certifier : {"SAMP", "RISK"}) {
      auto run = [&](size_t threads) -> RunOutcome {
        ThreadPool::SetGlobalThreads(threads);
        core::Oracle oracle(&w);
        core::CrowdOracle crowd(&w, crowd_options);
        core::CrowdTaskBroker broker(&w, &crowd, spec.task_options);
        oracle.SetAnswerProvider(broker.Provider());

        RunOutcome out;
        std::vector<int> labels;
        if (certifier[0] == 'S') {
          core::PartialSamplingOptions opts;
          opts.seed = seed;
          auto sol = core::PartialSamplingOptimizer(opts).Optimize(
              partition, req, &oracle);
          if (!sol.ok()) return out;
          labels = core::ApplySolution(partition, *sol, &oracle).labels;
        } else {
          core::RiskAwareOptions ro;
          ro.sampling.seed = seed;
          auto res =
              core::RiskAwareOptimizer(ro).Resolve(partition, req, &oracle);
          if (!res.ok()) return out;
          labels = std::move(res->resolution.labels);
        }
        const eval::Quality q = eval::QualityOf(w, labels);
        out.labels = std::move(labels);
        out.questions = oracle.cost();
        out.precision = q.precision;
        out.recall = q.recall;
        out.stats = broker.stats();
        out.ok = true;
        return out;
      };

      const RunOutcome serial = run(1);
      const RunOutcome parallel = run(4);
      ThreadPool::SetGlobalThreads(0);

      Row r;
      r.workload = spec.name;
      r.certifier = certifier;
      r.pairs = w.size();
      r.questions = serial.questions;
      r.tasks_posted = serial.stats.tasks_posted;
      r.pairs_purchased = serial.stats.pairs_purchased;
      r.pairs_inferred = serial.stats.pairs_inferred();
      r.worker_answers = serial.stats.worker_answers;
      r.inferred_fraction =
          serial.stats.pairs_answered() == 0
              ? 0.0
              : static_cast<double>(r.pairs_inferred) /
                    static_cast<double>(serial.stats.pairs_answered());
      r.task_reduction =
          r.questions == 0 ? 0.0
                           : 1.0 - static_cast<double>(r.tasks_posted) /
                                       static_cast<double>(r.questions);
      r.precision = serial.precision;
      r.recall = serial.recall;
      r.certified = serial.ok && serial.precision >= target &&
                    serial.recall >= target;
      r.tasks_le_questions = r.tasks_posted <= r.questions;
      r.thread_invariant = SameOutcome(serial, parallel);
      rows.push_back(r);

      check(serial.ok, "run failed to certify a solution", r);
      check(r.certified, "quality guarantee missed", r);
      check(r.tasks_le_questions, "tasks exceed questions", r);
      check(r.task_reduction >= 0.20, "task reduction under 20%", r);
      if (spec.name == "ENT") {
        const double floor = r.certifier == "SAMP" ? 0.20 : 0.10;
        check(r.inferred_fraction >= floor, "inferred fraction under floor",
              r);
      }
      check(r.thread_invariant, "thread-count variance", r);
      check(r.pairs_purchased + r.pairs_inferred == r.questions,
            "purchased + inferred pairs differ from questions", r);
      if (spec.name != "ENT") {
        check(r.pairs_inferred == 0, "inference on degree-1 records", r);
      }
    }
  }
  if (rows.size() != 6) {
    std::fprintf(stderr, "CONTRACT VIOLATION: %zu rows, expected 6\n",
                 rows.size());
    contract_ok = false;
  }

  std::printf("\n%-4s %-5s %8s %9s %7s %9s %9s %8s %8s %8s %8s\n", "wl",
              "cert", "pairs", "questions", "tasks", "purchased", "inferred",
              "inf_frac", "reduct", "prec", "recall");
  for (const Row& r : rows) {
    std::printf(
        "%-4s %-5s %8zu %9zu %7zu %9zu %9zu %8.4f %8.4f %8.4f %8.4f\n",
        r.workload.c_str(), r.certifier.c_str(), r.pairs, r.questions,
        r.tasks_posted, r.pairs_purchased, r.pairs_inferred,
        r.inferred_fraction, r.task_reduction, r.precision, r.recall);
  }

  std::vector<bench::JsonObject> json_rows;
  for (const Row& r : rows) {
    bench::JsonObject& out = json_rows.emplace_back();
    out.Set("workload", r.workload);
    out.Set("certifier", r.certifier);
    out.Set("pairs", r.pairs);
    out.Set("questions", r.questions);
    out.Set("tasks_posted", r.tasks_posted);
    out.Set("pairs_purchased", r.pairs_purchased);
    out.Set("pairs_inferred", r.pairs_inferred);
    out.Set("worker_answers", r.worker_answers);
    out.Set("inferred_fraction", r.inferred_fraction, 6);
    out.Set("task_reduction", r.task_reduction, 6);
    out.Set("precision", r.precision, 6);
    out.Set("recall", r.recall, 6);
    out.Set("certified", r.certified);
    out.Set("tasks_le_questions", r.tasks_le_questions);
    out.Set("thread_invariant", r.thread_invariant);
  }
  bench::JsonObject doc;
  doc.Set("bench", "crowd");
  doc.Set("alpha", target);
  doc.Set("beta", target);
  doc.Set("theta", target);
  doc.Set("task_capacity", kTaskCapacity);
  doc.Set("workers_per_pair", crowd_options.workers_per_pair);
  doc.Set("worker_error_rate", crowd_options.worker_error_rate);
  doc.Set("results", json_rows);
  if (!bench::WriteBenchJson("BENCH_crowd.json", doc)) return 1;

  if (!contract_ok) {
    std::fprintf(stderr, "crowd bench contract violated; see above\n");
    return 1;
  }
  return 0;
}
