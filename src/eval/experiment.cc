#include "eval/experiment.h"

#include <cmath>

#include "eval/evaluation.h"

namespace humo::eval {

TrialResult RunTrial(const core::SubsetPartition& partition,
                     const core::QualityRequirement& req,
                     const OptimizerFn& optimizer, core::Oracle* oracle) {
  TrialResult tr;
  auto sol = optimizer(partition, req, oracle);
  if (!sol.ok()) {
    tr.failed_to_run = true;
    return tr;
  }
  const auto result = core::ApplySolution(partition, *sol, oracle);
  const Quality q = QualityOf(partition.workload(), result.labels);
  tr.precision = q.precision;
  tr.recall = q.recall;
  tr.f1 = q.f1;
  tr.human_cost = result.human_cost;
  tr.human_cost_fraction = result.human_cost_fraction;
  tr.success = q.precision >= req.alpha && q.recall >= req.beta;
  return tr;
}

ExperimentSummary RunExperiment(
    const core::SubsetPartition& partition, const core::QualityRequirement& req,
    const std::function<OptimizerFn(uint64_t seed)>& optimizer_factory,
    size_t trials, uint64_t base_seed) {
  ExperimentSummary s;
  s.trials = trials;
  size_t ok_trials = 0;
  for (size_t t = 0; t < trials; ++t) {
    core::Oracle oracle(&partition.workload());
    const TrialResult tr =
        RunTrial(partition, req, optimizer_factory(base_seed + t), &oracle);
    if (tr.failed_to_run) {
      ++s.failed_trials;
      continue;
    }
    ++ok_trials;
    s.mean_precision += tr.precision;
    s.mean_recall += tr.recall;
    s.mean_f1 += tr.f1;
    s.mean_cost_fraction += tr.human_cost_fraction;
    s.successes += tr.success ? 1 : 0;
  }
  if (ok_trials > 0) {
    const double n = static_cast<double>(ok_trials);
    s.mean_precision /= n;
    s.mean_recall /= n;
    s.mean_f1 /= n;
    s.mean_cost_fraction /= n;
  }
  if (trials > 0)
    s.success_rate =
        static_cast<double>(s.successes) / static_cast<double>(trials);
  return s;
}

bool CoverageHolds(size_t met, size_t runs, double theta) {
  if (met > runs) return false;
  // P(X <= met) for X ~ Binomial(runs, theta), summed term by term in log
  // space.
  const double n = static_cast<double>(runs);
  double tail = 0.0;
  for (size_t i = 0; i <= met; ++i) {
    const double k = static_cast<double>(i);
    tail += std::exp(std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                     std::lgamma(n - k + 1.0) + k * std::log(theta) +
                     (n - k) * std::log1p(-theta));
  }
  return tail >= 1e-3;
}

}  // namespace humo::eval
