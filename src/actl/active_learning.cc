#include "actl/active_learning.h"

#include <algorithm>

#include "common/random.h"
#include "stats/proportion.h"

namespace humo::actl {

/// Confidence of the one-sided precision certificate per probe.
constexpr double kConfidence = 0.9;

Result<ActlResult> ActiveLearningResolver::Resolve(
    const core::SubsetPartition& partition, double target_precision,
    core::Oracle* oracle) const {
  if (oracle == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  const size_t m = partition.num_subsets();
  if (m == 0) return Status::InvalidArgument("empty workload");
  if (target_precision <= 0.0 || target_precision > 1.0)
    return Status::InvalidArgument("target precision must be in (0, 1]");

  Rng rng(options_.seed);
  const auto& workload = partition.workload();

  // Walk the threshold down; certify the precision of [t, m-1] by sampling.
  // Accept the lowest threshold whose Wilson lower bound clears the target.
  // Samples are drawn fresh per probe from the probe's region; the oracle
  // deduplicates repeat questions, so the effective cost grows sublinearly.
  auto certify = [&](size_t t) {
    size_t region_begin = partition[t].begin;
    size_t region_size = workload.size() - region_begin;
    if (region_size == 0) return true;
    const size_t take = std::min(options_.samples_per_probe, region_size);
    const auto picks = rng.SampleWithoutReplacement(region_size, take);
    size_t positives = 0;
    for (size_t off : picks) positives += oracle->Label(region_begin + off);
    const auto iv = stats::WilsonInterval(positives, take, kConfidence);
    return iv.lo >= target_precision;
  };

  // The region must start non-empty; find the best (lowest) certified
  // threshold. If even the top subset cannot be certified, everything is
  // labeled unmatch (threshold past the end).
  size_t best = m;  // sentinel: nothing labeled match
  for (size_t t = m; t-- > 0;) {
    if (certify(t)) {
      best = t;
    } else {
      break;  // monotone metric: lower thresholds only get dirtier
    }
  }

  ActlResult result;
  result.threshold_subset = best;
  result.labels.assign(workload.size(), 0);
  if (best < m) {
    for (size_t i = partition[best].begin; i < workload.size(); ++i)
      result.labels[i] = 1;
  }
  result.human_cost = oracle->cost();
  result.human_cost_fraction = oracle->CostFraction();
  return result;
}

}  // namespace humo::actl
