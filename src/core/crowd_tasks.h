#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/crowd_oracle.h"
#include "core/oracle.h"
#include "data/workload.h"

namespace humo::core {

/// Configuration of the crowd TASK layer: how pair questions are packed
/// into HITs. Transitivity (a=b and b=c imply a=c) and anti-transitivity
/// (a=b and b!=c imply a!=c) over purchased verdicts always apply.
struct CrowdTaskOptions {
  /// Pairs per posted HIT (CrowdER's task size k). Real crowd platforms
  /// price per task, not per pair, so packing `task_capacity` correlated
  /// pairs into one HIT divides task cost by up to that factor. Clamped to
  /// >= 1.
  size_t task_capacity = 10;
  /// Source tags mixed into the record keys ((source<<32)|id, the entity
  /// layer's packing). Two-table workloads keep the defaults; dedup-style
  /// workloads (both sides drawn from one table, e.g. the entity-graph
  /// generator) pass equal sources so shared record ids actually connect.
  uint32_t left_source = 0;
  uint32_t right_source = 1;
};

/// One HIT: up to `task_capacity` pair questions posted together.
struct CrowdTask {
  std::vector<size_t> pair_indices;
};

/// Incremental equivalence/constraint store over record keys, fed by
/// purchased verdicts:
///   - a purchased MATCH merges the two records' components (union-find,
///     union by size, path halving);
///   - a purchased NON-MATCH records a negative edge between the two
///     components (re-keyed when components merge).
/// Infer(a, b) then answers from the closure: same component => match,
/// negative edge between the components => non-match (a=b and b!=c imply
/// a!=c), otherwise unknown.
///
/// Noisy crowds can produce contradicting verdicts (a cycle whose closure
/// disagrees with a purchased edge). Policy: FIRST PURCHASE WINS — an
/// observation that contradicts the existing closure is dropped (counted in
/// conflicts_dropped()), never applied. Since observation order is the
/// deterministic purchase order, the store's state is deterministic, and a
/// consumer that serves purchased verdicts from its own answer memory (as
/// core::Oracle does) can never see inference contradict a purchased
/// verdict: inference is only ever consulted for never-purchased pairs.
class TransitiveInference {
 public:
  /// Result of Infer: one of kMatch (=1), kNonMatch (=0), kUnknown (=-1).
  static constexpr int kMatch = 1;
  static constexpr int kNonMatch = 0;
  static constexpr int kUnknown = -1;

  /// Closure answer for the record pair (a, b), without mutating anything.
  int Infer(uint64_t a, uint64_t b) const;

  /// Stable bucket for the record's current POSITIVE component: two records
  /// the closure already connects share a bucket, never-seen records bucket
  /// by their own key. The broker's spanning selection seeds its local
  /// union-find with these, so known connectivity also defers purchases.
  uint64_t ComponentKey(uint64_t key) const;

  /// Folds a purchased verdict on (a, b) into the store.
  void Observe(uint64_t a, uint64_t b, bool is_match);

  /// Distinct record keys seen so far.
  size_t num_records() const { return parent_.size(); }
  /// Component merges applied (successful positive observations).
  size_t merges() const { return merges_; }
  /// Live negative component edges.
  size_t negative_edges() const { return negative_edges_; }
  /// Observations dropped because they contradicted the existing closure.
  size_t conflicts_dropped() const { return conflicts_dropped_; }

 private:
  uint32_t Intern(uint64_t key);
  uint32_t Find(uint32_t x);
  /// Non-mutating find for const queries (no path halving).
  uint32_t FindConst(uint32_t x) const;

  std::unordered_map<uint64_t, uint32_t> ids_;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  /// Negative constraint adjacency, keyed by component ROOT; maintained
  /// eagerly across merges (small-to-large), so Infer is O(alpha) + one
  /// hash probe.
  std::vector<std::unordered_set<uint32_t>> neg_;
  size_t merges_ = 0;
  size_t negative_edges_ = 0;
  size_t conflicts_dropped_ = 0;
};

/// Packs `pair_indices` (distinct workload pair indices) into HITs of at
/// most `options.task_capacity` pairs. Pairs are grouped by connected
/// component of shared records (a local union-find over the records these
/// pairs mention — the blocking-cluster structure), components are ordered
/// by their smallest pair index, pairs within a component ascend, and the
/// concatenated sequence is sliced into capacity-sized tasks — so
/// correlated pairs share a HIT whenever they fit, and the packing is a
/// pure function of the (sorted) input. Task count is exactly
/// ceil(n / capacity).
std::vector<CrowdTask> PackCrowdTasks(const data::Workload& workload,
                                      std::vector<size_t> pair_indices,
                                      const CrowdTaskOptions& options);

/// Cumulative crowd-task accounting. The research punchline lives here:
/// `tasks_posted` is the task-denominated cost that replaces the per-pair
/// question count when the human is a crowd, and
/// pairs_inferred() / (pairs_inferred() + pairs_purchased) is the fraction
/// of answers that cost nothing at all.
struct CrowdTaskStats {
  size_t tasks_posted = 0;
  size_t pairs_purchased = 0;
  size_t pairs_inferred_match = 0;
  size_t pairs_inferred_nonmatch = 0;
  size_t worker_answers = 0;

  size_t pairs_inferred() const {
    return pairs_inferred_match + pairs_inferred_nonmatch;
  }
  size_t pairs_answered() const { return pairs_purchased + pairs_inferred(); }
};

/// Broker between the per-pair oracle protocol and a crowd platform:
/// installed as a core::Oracle AnswerProvider, it receives each inspection
/// batch's distinct unanswered pairs and answers them with as few posted
/// HITs as possible. Each ROUND:
///   1. every pair the TransitiveInference closure already decides is
///      answered for free (no task, no worker);
///   2. a SPANNING SUBSET of the remainder is selected — a pair whose
///      endpoints the already-selected pairs would connect (assuming they
///      come back matches) is deferred, because a match outcome makes it
///      inferable for free. Selection seeds from the closure's components,
///      so evidence from earlier rounds and batches also defers purchases;
///   3. the selected pairs are cluster-packed (PackCrowdTasks) and posted,
///      their verdicts feeding the closure, and the loop repeats — pairs
///      whose optimistic support turned out non-match are bought in a later
///      round (or answered by anti-transitivity, which non-matches enable).
/// Under the optimistic-connectivity rule no selected pair can become
/// inferable from other SELECTED pairs' verdicts, so posting a whole
/// round's tasks together loses no inference relative to one-at-a-time.
/// SAMP/RISK/HYBR run unchanged on the owning Oracle and see ordinary
/// answers; the broker's CrowdTaskStats carry the task-denominated cost.
/// Like the crowd, the broker keeps no answer ledger: the owning Oracle
/// remembers every answer it returns, and the verdicts bought during one
/// Answer() call live only for that call.
///
/// Everything is serial and deterministic: results and stats are
/// bit-identical at any thread count for a given request sequence.
class CrowdTaskBroker {
 public:
  /// `workload` and `crowd` must outlive the broker.
  CrowdTaskBroker(const data::Workload* workload, CrowdOracle* crowd,
                  CrowdTaskOptions options = {});

  /// Answers `indices` (the AnswerProvider contract: distinct pairs the
  /// crowd never judged, first-occurrence order), purchasing only what
  /// inference cannot supply. A direct caller must keep that contract: a
  /// pair passed to an earlier call may be bought again. When `purchased`
  /// is non-null, the pairs this call bought are appended to it in
  /// purchase order.
  std::vector<char> Answer(const std::vector<size_t>& indices,
                           std::vector<size_t>* purchased = nullptr);

  /// The closure over Answer to install via Oracle::SetAnswerProvider.
  /// Install it on exactly one Oracle: that oracle is the only memory of
  /// the answers, so a second oracle over the same broker buys the pairs
  /// the first one already holds.
  Oracle::AnswerProvider Provider();

  const CrowdTaskStats& stats() const { return stats_; }
  const TransitiveInference& inference() const { return inference_; }

 private:
  uint64_t LeftKey(size_t pair) const;
  uint64_t RightKey(size_t pair) const;

  const data::Workload* workload_;
  CrowdOracle* crowd_;
  CrowdTaskOptions options_;
  TransitiveInference inference_;
  CrowdTaskStats stats_;
};

}  // namespace humo::core
