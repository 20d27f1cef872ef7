#include "core/solution.h"

#include <cassert>

#include "common/string_util.h"

namespace humo::core {

Status ValidateRequirement(const QualityRequirement& req) {
  // Written so that NaN fails every test.
  if (!(req.alpha >= 0.0 && req.alpha <= 1.0))
    return Status::InvalidArgument("alpha must lie in [0, 1]");
  if (!(req.beta >= 0.0 && req.beta <= 1.0))
    return Status::InvalidArgument("beta must lie in [0, 1]");
  if (!(req.theta > 0.0 && req.theta < 1.0))
    return Status::InvalidArgument("theta must lie in (0, 1)");
  return Status::OK();
}

ResolutionResult ApplySolution(const SubsetPartition& partition,
                               const HumoSolution& solution, Oracle* oracle) {
  assert(oracle != nullptr);
  const auto& workload = partition.workload();
  ResolutionResult result;
  result.solution = solution;
  result.labels.assign(workload.size(), 0);

  if (workload.size() == 0) return result;

  size_t first_human = 0, last_human = 0;
  bool has_human = !solution.empty && partition.num_subsets() > 0;
  size_t match_from;  // first pair index labeled match automatically
  if (has_human) {
    assert(solution.h_lo <= solution.h_hi);
    assert(solution.h_hi < partition.num_subsets());
    first_human = partition[solution.h_lo].begin;
    last_human = partition[solution.h_hi].end;  // exclusive
    match_from = last_human;
  } else {
    // Machine-only split at subset h_lo's begin.
    match_from = partition.num_subsets() == 0
                     ? 0
                     : partition[std::min(solution.h_lo,
                                          partition.num_subsets() - 1)]
                           .begin;
  }

  // DH verification goes to the oracle as one batch of only the pairs it
  // has not already answered (answers from the optimization phase are free
  // lookups) — the same no-duplicate-request discipline the estimation
  // engine applies, so chained pipelines keep duplicate_requests() at zero.
  if (has_human) {
    std::vector<size_t> fresh;
    fresh.reserve(last_human - first_human);
    for (size_t i = first_human; i < last_human; ++i) {
      if (oracle->WasAsked(i)) {
        result.labels[i] = oracle->CachedAnswer(i) ? 1 : 0;
      } else {
        fresh.push_back(i);
      }
    }
    const std::vector<char> answers = oracle->InspectBatch(fresh);
    for (size_t t = 0; t < fresh.size(); ++t) {
      result.labels[fresh[t]] = answers[t] ? 1 : 0;
    }
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    if (has_human && i >= first_human && i < last_human) continue;
    result.labels[i] = i >= match_from ? 1 : 0;
  }
  result.human_cost = oracle->cost();
  result.human_cost_fraction = oracle->CostFraction();
  return result;
}

std::string DescribeSolution(const SubsetPartition& partition,
                             const HumoSolution& solution) {
  if (solution.empty || partition.num_subsets() == 0) {
    return "DH = empty (machine-only)";
  }
  const size_t pairs = partition.PairsInRange(solution.h_lo, solution.h_hi);
  return StrFormat("DH = subsets [%zu, %zu] (%zu subsets, %zu pairs)",
                   solution.h_lo, solution.h_hi, solution.NumHumanSubsets(),
                   pairs);
}

}  // namespace humo::core
