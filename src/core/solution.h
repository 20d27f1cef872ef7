#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/oracle.h"
#include "core/partition.h"

namespace humo::core {

/// User-specified quality requirement of Definition 1: precision >= alpha
/// and recall >= beta, each with confidence theta.
struct QualityRequirement {
  double alpha = 0.9;
  double beta = 0.9;
  double theta = 0.9;
};

/// Rejects a requirement outside Definition 1's ranges with InvalidArgument:
/// alpha and beta must lie in [0, 1] and theta in (0, 1); NaN is rejected
/// too. Every certifier checks this before it inspects a pair.
Status ValidateRequirement(const QualityRequirement& req);

/// A HUMO solution: the subset-index range [h_lo, h_hi] forming DH.
/// Subsets below h_lo are D- (auto unmatch); above h_hi are D+ (auto match).
/// An empty DH is encoded by empty=true (pure machine labeling around the
/// split point h_lo: below -> unmatch, at/above -> match).
struct HumoSolution {
  size_t h_lo = 0;
  size_t h_hi = 0;
  bool empty = false;

  /// Number of subsets in DH.
  size_t NumHumanSubsets() const { return empty ? 0 : h_hi - h_lo + 1; }
};

/// Outcome of applying a solution to a workload: the final labeling (after
/// the human verified DH through the oracle) plus cost accounting.
struct ResolutionResult {
  HumoSolution solution;
  /// Final labels parallel to the workload (1 = match).
  std::vector<int> labels;
  /// Distinct pairs the human inspected across the whole pipeline
  /// (sampling + DH verification).
  size_t human_cost = 0;
  /// human_cost / |D|, the psi of Tables V/VI.
  double human_cost_fraction = 0.0;
};

/// Applies a solution: labels D- unmatch, D+ match, and asks the oracle for
/// every pair of DH. The oracle keeps accumulating cost across phases, so
/// sampling cost spent during optimization is included in the returned
/// totals.
ResolutionResult ApplySolution(const SubsetPartition& partition,
                               const HumoSolution& solution, Oracle* oracle);

/// Renders "DH = subsets [lo, hi] (k subsets, p pairs)" for logs and benches.
std::string DescribeSolution(const SubsetPartition& partition,
                             const HumoSolution& solution);

}  // namespace humo::core
