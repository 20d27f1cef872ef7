#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "data/workload.h"

namespace humo::core {

/// Deterministic per-(seed, index, worker) draw in [0, 1): the one source of
/// simulated human error. The oracle's per-pair flip uses worker 0; the
/// crowd keys each vote by its worker (core/crowd_oracle.h).
double HashToUnit(uint64_t seed, uint64_t index, uint64_t worker = 0);

/// Simulated human verifier over a workload's hidden ground truth.
///
/// The paper's protocol (§VIII-A): "the ground-truth labels are originally
/// hidden; whenever manual verification is called for, they are provided to
/// the program". The oracle is the only path through which optimizers may
/// observe labels, and it accounts for human cost as the number of DISTINCT
/// pairs inspected (repeat queries on the same pair are free — the answer is
/// already known).
///
/// This is the library's one answer ledger: whoever answers — the inline
/// simulation, a crowd behind an AnswerProvider, a folded review verdict
/// (Preload) — the answer is remembered and counted here, and moved here
/// when an interior merge shifts pair indices (MoveForInsertions).
///
/// Answer memory is two flat bitsets indexed by pair index, `known_` ("is
/// this pair answered?") and `match_` ("what was the answer?"): two bits per
/// pair, so a fully inspected 10M-pair workload costs ~2.5 MB, and every
/// lookup is one word probe. Cost counters are tracked directly
/// (`inspected_` fresh inspections, `preloaded_` seeded answers) rather
/// than derived from the answer memory, so no preload/inspect ordering can
/// underflow cost().
///
/// An optional error rate models imperfect humans (§IV discusses that HUMO's
/// guarantees then degrade to what the human achieves on DH): each pair's
/// answer is flipped with probability `error_rate`, deterministically per
/// pair (asking twice cannot fix a wrong answer).
class Oracle {
 public:
  /// Out-of-band answer source for pairs that have no remembered answer
  /// yet: receives the distinct unanswered indices of one inspection batch
  /// (first-occurrence order) and returns one answer per index, parallel to
  /// the input. The oracle remembers and counts what the provider returns —
  /// the provider keeps no answer memory of its own and is never asked about
  /// a pair twice. The oracle has already claimed the indices in its memory
  /// when it calls the provider, so a provider must compute or buy its
  /// answers, never read them back from this oracle. Cost accounting is
  /// unchanged whichever provider answers.
  /// CrowdOracle::Provider() returns one jury verdict per pair, and
  /// CrowdTaskBroker::Provider() puts transitive inference and HIT packing
  /// in front of the same juries: their verdicts equal InlineAnswer() only
  /// when every worker is error-free and the oracle's own error_rate is 0,
  /// and differ otherwise. bench_e2e's traced runs install a provider that
  /// answers exactly like InlineAnswer() and counts each batch.
  using AnswerProvider =
      std::function<std::vector<char>(const std::vector<size_t>&)>;

  explicit Oracle(const data::Workload* workload, double error_rate = 0.0,
                  uint64_t seed = 99);

  /// Human-labels pair `index`; returns true when labeled match. A batch
  /// of one (InspectBatch({index})).
  bool Label(size_t index);

  /// The deterministic verdict the simulated human gives for `index`:
  /// ground truth XOR the seeded per-index error flip. Pure (no memory, no
  /// counters): the inline path answers with it, and so do callers that
  /// must reproduce an inline answer out of band (a review verdict the
  /// resolution service computes at enqueue time, a bench's synchronous
  /// reference).
  bool InlineAnswer(size_t index) const;

  /// Routes fresh inspections through `provider` (nullptr restores inline
  /// answering). Already-remembered answers are still served from memory
  /// without consulting the provider.
  void SetAnswerProvider(AnswerProvider provider) {
    provider_ = std::move(provider);
  }

  /// Batch inspection: answers for `indices`, parallel to the input. Each
  /// unanswered index is claimed in the answer memory and answered inline
  /// as it is met; with a provider, the distinct claimed indices
  /// (first-occurrence order) are answered in one go and recorded. Then the
  /// whole batch is served from memory. Each DISTINCT pair is charged once,
  /// and every index counts as a request.
  /// The batch is the unit of human interaction (one crowd task / review
  /// session instead of one round-trip per pair), which is what the
  /// estimation engine routes through.
  std::vector<char> InspectBatch(const std::vector<size_t>& indices);

  /// Seeds the answer memory with an answer that was already paid for
  /// elsewhere — StreamingResolver::PreloadEvidence, through which the
  /// resolution service folds its review verdicts. A
  /// preloaded answer is free: it adds nothing to cost() or
  /// total_requests(), and later queries on the pair are served from memory
  /// exactly like a previously inspected one (WasAsked/CachedAnswer see
  /// it). Preloading an index that already has an answer is a no-op.
  void Preload(size_t index, bool answer);

  /// Number of answers seeded through Preload (and still distinct from any
  /// fresh inspection).
  size_t preloaded() const { return preloaded_; }

  /// Number of distinct pairs freshly inspected so far (the paper's
  /// human-cost metric). Preloaded answers are excluded — they were paid
  /// for wherever they were originally inspected.
  size_t cost() const { return inspected_; }

  /// Every pair index ever passed to Label/InspectBatch, including repeats
  /// answered from memory.
  size_t total_requests() const { return total_requests_; }

  /// Requests that were answered from memory instead of a fresh inspection.
  /// The estimation engine's caches exist to keep this at zero: a duplicate
  /// request is a wasted round-trip to the human even though it is free in
  /// the paper's distinct-pair cost metric.
  size_t duplicate_requests() const { return total_requests_ - inspected_; }

  /// Cost as a fraction of the workload (the psi of Tables V/VI).
  double CostFraction() const;

  /// True if the pair was already inspected (or preloaded). An index past
  /// every recorded answer reads not asked.
  bool WasAsked(size_t index) const {
    const size_t w = index / 64;
    return w < known_.size() && ((known_[w] >> (index % 64)) & 1u);
  }

  /// The remembered answer for an already-inspected pair (free lookup; does
  /// not count as a request). Precondition: WasAsked(index).
  bool CachedAnswer(size_t index) const {
    assert(WasAsked(index) && "CachedAnswer() on an unasked pair");
    return (match_[index / 64] >> (index % 64)) & 1u;
  }

  /// Moves every remembered answer to its pair's index after the workload
  /// grew by Workload::MergeSorted, which returned `landed` (the ascending
  /// positions of the inserted pairs). An answer at old index i moves up
  /// by the number of pairs that landed before it. One ascending pass over
  /// the answered pairs; the counters are left alone — no answer is gained,
  /// lost or re-paid.
  void MoveForInsertions(const std::vector<size_t>& landed);

  /// Bytes held by the two answer bitsets (their capacity);
  /// OracleTest.AnswerMemoryIsTwoBitsPerPair bounds it per pair.
  size_t AnswerMemoryBytes() const {
    return (known_.capacity() + match_.capacity()) * sizeof(uint64_t);
  }

 private:
  /// Records `answer` for `index` unless an answer exists already (history
  /// cannot be rewritten). Returns true when the index was newly recorded.
  bool Record(size_t index, bool answer);

  const data::Workload* workload_;
  double error_rate_;
  uint64_t seed_;
  size_t total_requests_ = 0;
  size_t inspected_ = 0;
  size_t preloaded_ = 0;
  // Word w covers pair indices [64w, 64w + 64); both grow to cover the
  // workload when an answer is recorded past their end.
  std::vector<uint64_t> known_;
  std::vector<uint64_t> match_;
  AnswerProvider provider_;  // nullptr: answer inline (the default)
};

}  // namespace humo::core
