// Crowdsourced human workforce (the paper's §IX future-work direction):
// replace the single expert with a crowd of error-prone workers adjudicated
// by majority vote, and study the cost/quality trade-off of the crowd size.
//
// Cost here is counted in WORKER ANSWERS (the monetary unit of a
// crowdsourcing platform), so asking 3 workers per pair costs 3x a single
// expert — but a 10%-error worker pool at k=3 already delivers 97.2%
// verdict accuracy.

#include <cstdio>
#include <vector>

#include "humo.h"

int main() {
  using namespace humo;

  const data::Workload workload = data::SimulatePairs(data::DsConfig());
  core::SubsetPartition partition(&workload, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};

  // HUMO plans DH with a perfect planning oracle (sampling phase), then the
  // crowd executes the DH verification. This mirrors a deployment where a
  // small expert team drives the optimizer and the crowd does the bulk
  // labeling.
  eval::Table table({"workers/pair", "worker error", "verdict error",
                     "precision", "recall", "worker answers", "answers/pair"});
  for (size_t k : {1ul, 3ul, 5ul}) {
    for (double err : {0.05, 0.15}) {
      core::Oracle planner(&workload);
      auto sol = core::HybridOptimizer().Optimize(partition, req, &planner);
      if (!sol.ok()) continue;

      core::CrowdOptions crowd_opts;
      crowd_opts.workers_per_pair = k;
      crowd_opts.worker_error_rate = err;
      core::CrowdOracle crowd(&workload, crowd_opts);
      // The crowd answers through an Oracle, which remembers and counts
      // the verdicts; the crowd only adjudicates.
      core::Oracle crowd_oracle(&workload);
      crowd_oracle.SetAnswerProvider(crowd.Provider());

      // Execute DH with the crowd, as one posted batch.
      const size_t dh_begin = partition[sol->h_lo].begin;
      const size_t dh_end = partition[sol->h_hi].end;
      std::vector<size_t> dh(dh_end - dh_begin);
      for (size_t i = dh_begin; i < dh_end; ++i) dh[i - dh_begin] = i;
      const std::vector<char> verdicts = crowd_oracle.InspectBatch(dh);
      std::vector<int> labels(workload.size(), 0);
      for (size_t i = dh_begin; i < dh_end; ++i) {
        labels[i] = verdicts[i - dh_begin];
      }
      for (size_t i = dh_end; i < workload.size(); ++i) labels[i] = 1;
      const auto q = eval::QualityOf(workload, labels);
      table.AddRow({std::to_string(k), eval::FmtPercent(err, 0),
                    eval::FmtPercent(crowd.VerdictErrorRate()),
                    eval::Fmt(q.precision), eval::Fmt(q.recall),
                    std::to_string(crowd.worker_answers()),
                    eval::Fmt(
                        static_cast<double>(crowd.worker_answers()) /
                            static_cast<double>(crowd.pairs_adjudicated()),
                        1)});
    }
  }
  table.Print();
  std::printf("\nMajority voting buys back the quality an imperfect crowd "
              "loses; 3-5 workers per pair usually suffice (§IX).\n");
  return 0;
}
