#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace humo::stats {

/// One crowd vote: worker `worker` judged item `item` as match (answer=1)
/// or non-match (answer=0).
struct CrowdVote {
  uint32_t item = 0;
  uint32_t worker = 0;
  uint8_t answer = 0;
};

struct DawidSkeneOptions {
  /// EM iterations. Fixed (no convergence test) so the result is a pure
  /// function of the votes — bit-identical run to run and machine to
  /// machine regardless of how close the fit already is.
  size_t iterations = 20;
};

struct DawidSkeneResult {
  /// P(item is a match | votes), one per item. Items with no votes keep the
  /// fitted class prior.
  std::vector<double> posterior;
  /// Per-worker P(says match | true match) and P(says non-match | true
  /// non-match). Workers with no votes sit at the smoothed prior (0.5).
  std::vector<double> sensitivity;
  std::vector<double> specificity;
  /// Convenience: ((1 - sensitivity) + (1 - specificity)) / 2, the
  /// symmetric error rate the simulated crowd plants per worker.
  std::vector<double> error_rate;
  /// Fitted class prior P(match).
  double match_prior = 0.5;
  size_t iterations_run = 0;
};

/// Dawid–Skene-style EM for binary crowd labels (Dawid & Skene 1979,
/// specialized to two classes): alternates per-worker confusion estimates
/// (M-step, smoothed) with per-item posteriors (E-step, log-space Bayes
/// product over the item's votes). Initialization is the per-item majority
/// fraction, iteration count is fixed, and all loops are serial over the
/// vote order given — the result is deterministic for a given vote list.
///
/// Complexity O(iterations * votes); the caller owns batching policy.
DawidSkeneResult RunDawidSkene(size_t num_items, size_t num_workers,
                               const std::vector<CrowdVote>& votes,
                               const DawidSkeneOptions& options = {});

}  // namespace humo::stats
