#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/partition.h"
#include "core/solution.h"
#include "data/workload.h"

namespace humo::eval {

/// One trial's outcome: achieved quality, human cost and success flag.
struct TrialResult {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double human_cost_fraction = 0.0;
  size_t human_cost = 0;
  bool success = false;  // precision >= alpha && recall >= beta
  bool failed_to_run = false;
};

/// Aggregate over trials (the paper averages 100 runs and reports success
/// rates alongside mean quality). The means are over the trials that ran; a
/// trial whose optimizer returned an error counts as a miss in
/// `successes` and `success_rate`.
struct ExperimentSummary {
  double mean_precision = 0.0;
  double mean_recall = 0.0;
  double mean_f1 = 0.0;
  double mean_cost_fraction = 0.0;
  double success_rate = 0.0;  // successes / trials
  size_t successes = 0;       // trials meeting both targets
  size_t trials = 0;
  size_t failed_trials = 0;
};

/// An optimizer under test: given a partition, requirement and oracle,
/// produce a solution. Wraps any of BASE / SAMP / HYBR with the trial's
/// seed applied.
using OptimizerFn = std::function<humo::Result<core::HumoSolution>(
    const core::SubsetPartition&, const core::QualityRequirement&,
    core::Oracle*)>;

/// Runs one trial end-to-end: optimize, apply the solution (human labels
/// DH), evaluate against ground truth.
TrialResult RunTrial(const core::SubsetPartition& partition,
                     const core::QualityRequirement& req,
                     const OptimizerFn& optimizer, core::Oracle* oracle);

/// Runs `trials` independent trials; trial t receives seed `base_seed + t`
/// through the factory so sampling randomness differs per run.
ExperimentSummary RunExperiment(
    const core::SubsetPartition& partition, const core::QualityRequirement& req,
    const std::function<OptimizerFn(uint64_t seed)>& optimizer_factory,
    size_t trials, uint64_t base_seed = 1000);

/// The coverage rule of a certificate at confidence `theta`: `met` of
/// `runs` independent runs meeting (alpha, beta) is consistent with a true
/// rate of at least theta unless the one-sided binomial tail
/// P(X <= met | runs, theta) falls below 0.001. At theta = 0.9 that rejects
/// <= 12 of 20 and <= 16 of 25. Zero runs hold vacuously.
bool CoverageHolds(size_t met, size_t runs, double theta);

}  // namespace humo::eval
