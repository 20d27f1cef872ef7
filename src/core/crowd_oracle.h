#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/oracle.h"
#include "data/workload.h"
#include "stats/dawid_skene.h"

namespace humo::core {

/// How the crowd's per-worker answers are folded into one verdict per pair.
enum class CrowdAggregation {
  /// Simple majority of the workers asked on the pair (the legacy mode).
  kMajorityVote,
  /// Dawid–Skene-style worker-quality EM over the full purchased vote
  /// history: each worker's confusion (sensitivity/specificity) is
  /// estimated jointly with the pair posteriors, so a consistently wrong
  /// worker's votes are down-weighted instead of counted at face value.
  /// Requires a worker pool (worker_pool > 0); falls back to majority vote
  /// until `ds_min_adjudicated` distinct pairs carry votes (with thin
  /// evidence the EM has nothing to estimate workers from).
  kDawidSkene,
};

/// Configuration of the simulated crowdsourcing workforce.
///
/// Options are VALIDATED on construction in every build mode (not just
/// Debug asserts): see ValidateCrowdOptions for the clamping rules. An even
/// `workers_per_pair` used to silently break majority ties toward
/// non-match in Release builds; it is now rounded up to the next odd count.
struct CrowdOptions {
  /// Odd number of workers asked per pair; even or zero values are clamped
  /// up to the next odd count.
  size_t workers_per_pair = 3;
  /// Mean worker error probability, clamped to [0, 1] (NaN clamps to 0).
  double worker_error_rate = 0.1;
  uint64_t seed = 123;
  /// Size of the persistent worker pool. 0 (default) keeps the legacy
  /// behavior: every pair is judged by fresh anonymous workers, all at
  /// exactly `worker_error_rate`. A positive pool assigns each pair
  /// `workers_per_pair` DISTINCT workers drawn deterministically from the
  /// pool, and each worker has a fixed latent error rate (see
  /// `worker_error_spread`) — the regime where per-worker quality
  /// estimation pays off. Clamped up to `workers_per_pair` when positive.
  size_t worker_pool = 0;
  /// Half-width of the per-worker error heterogeneity (pool mode only):
  /// worker w's latent error is worker_error_rate + spread * u_w with
  /// u_w deterministic in [-1, 1], clamped to [0, 0.49]. Clamped to
  /// [0, 0.5].
  double worker_error_spread = 0.0;
  CrowdAggregation aggregation = CrowdAggregation::kMajorityVote;
  /// Fixed EM iteration count (determinism; clamped to >= 1).
  size_t ds_em_iterations = 20;
  /// Majority-vote fallback threshold: Dawid–Skene is only trusted once
  /// this many distinct pairs carry purchased votes.
  size_t ds_min_adjudicated = 8;
};

/// Returns `options` with every out-of-range field clamped into its
/// documented domain. CrowdOracle applies this on construction; it is
/// exposed so tests can pin the exact clamping behavior.
CrowdOptions ValidateCrowdOptions(CrowdOptions options);

/// Crowdsourced human verification (the paper's §IX future-work direction):
/// instead of one perfect expert, each pair is judged by `workers_per_pair`
/// error-prone workers and resolved by majority vote or Dawid–Skene
/// worker-quality EM. Cost is counted in WORKER ANSWERS (the monetary unit
/// of crowdsourcing platforms), not distinct pairs — the accounting §IX
/// calls more appropriate for crowds.
///
/// With per-worker error e and 2t+1 workers, the majority verdict errs with
/// probability sum_{j>t} C(2t+1,j) e^j (1-e)^(2t+1-j) — e.g. e=0.1 with 3
/// workers gives 2.8% verdict error, with 5 workers 0.86%. With a
/// HETEROGENEOUS pool (worker_error_spread > 0) majority vote counts a 30%-
/// error worker the same as a 2% one; kDawidSkene recovers each worker's
/// confusion from the vote history and weights accordingly.
///
/// The crowd is a label source, not a ledger: it keeps no verdict memory and
/// counts no requests. Install it on a core::Oracle (Provider(), or behind a
/// CrowdTaskBroker); the oracle remembers each verdict, serves repeats from
/// memory and asks the crowd only about pairs it never judged. That holds
/// only while one oracle owns the crowd: a second oracle over the same crowd,
/// or a direct Adjudicate caller that repeats a pair, buys the pair again,
/// and under kDawidSkene adds a second copy of its votes to the history.
///
/// Determinism: votes are pure functions of (seed, pair, worker), the EM
/// runs a fixed iteration count over the purchase-ordered vote history, and
/// a pair's verdict is fixed at adjudication time and never revised — so
/// any purchase sequence replays bit-identically, at any thread count.
class CrowdOracle {
 public:
  CrowdOracle(const data::Workload* workload, CrowdOptions options = {});

  /// Verdicts for `fresh`, parallel to the input: distinct pairs this crowd
  /// has never judged, in purchase order. The precondition is the caller's
  /// to keep; it is not checked. One call is one posted task group on a
  /// crowdsourcing platform; under kDawidSkene the batch's votes join the
  /// history before the EM adjudicates them.
  std::vector<char> Adjudicate(const std::vector<size_t>& fresh);

  /// Adjudicate as the AnswerProvider to install via
  /// Oracle::SetAnswerProvider, on exactly one oracle (see the class
  /// comment). The crowd must outlive the oracle.
  Oracle::AnswerProvider Provider();

  /// Total worker answers purchased.
  size_t worker_answers() const { return worker_answers_; }

  /// Distinct pairs adjudicated by purchased worker answers.
  size_t pairs_adjudicated() const { return adjudicated_; }

  /// Fraction of PURCHASED adjudications whose verdict disagrees with the
  /// ground truth (observable in simulation only; used by tests and
  /// benches).
  double VerdictErrorRate() const;

  /// The latent error rate planted for pool worker `worker` — what the
  /// Dawid–Skene estimates are recovering. Pool mode only.
  double PlantedWorkerError(size_t worker) const;

  /// Per-worker error estimates from the most recent Dawid–Skene EM run
  /// (empty before the first kDawidSkene adjudication past the fallback
  /// threshold).
  const std::vector<double>& worker_error_estimates() const {
    return worker_error_estimates_;
  }

  const CrowdOptions& options() const { return options_; }

 private:
  /// The `workers_per_pair` distinct pool workers assigned to `index`.
  void AssignWorkers(size_t index, std::vector<uint32_t>* workers) const;

  const data::Workload* workload_;
  CrowdOptions options_;
  size_t worker_answers_ = 0;
  size_t wrong_verdicts_ = 0;
  size_t adjudicated_ = 0;
  /// Purchase-ordered vote history (kDawidSkene only): item t is the t-th
  /// adjudicated pair.
  std::vector<stats::CrowdVote> votes_;
  size_t vote_items_ = 0;
  std::vector<double> worker_error_estimates_;
};

}  // namespace humo::core
