#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/paged_bitmap.h"
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
/// Answer memory is a paged bitmap (core/paged_bitmap.h), not a hash map:
/// a fully inspected 10M-pair workload costs ~2.5 MiB instead of the
/// >0.5 GiB an unordered_map<size_t, bool> node store reaches, and every
/// lookup is two bit probes. Cost counters are tracked directly
/// (`inspected_` fresh inspections, `preloaded_` seeded answers) rather
/// than derived by subtracting container sizes, so no preload/inspect
/// ordering can underflow cost() — the regression the pre-overhaul
/// `answers_.size() - preloaded_` formula was one bookkeeping slip away
/// from turning into a ~SIZE_MAX human cost.
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
  /// Three providers exist. The resolution service's bridge onto its
  /// asynchronous crowd queue returns exactly the answers InlineAnswer()
  /// computes — routing changes who answers and when, never the values —
  /// and that exactness is what its drain-to-quiescence contract (drained
  /// state bit-identical to the synchronous run) needs.
  /// CrowdOracle::Provider() returns one jury verdict per pair, and
  /// CrowdTaskBroker::Provider() puts transitive inference and HIT packing
  /// in front of the same juries: their verdicts equal InlineAnswer() only
  /// when every worker is error-free and the oracle's own error_rate is 0,
  /// and differ otherwise.
  using AnswerProvider =
      std::function<std::vector<char>(const std::vector<size_t>&)>;

  explicit Oracle(const data::Workload* workload, double error_rate = 0.0,
                  uint64_t seed = 99);

  /// Human-labels pair `index`; returns true when labeled match. A batch
  /// of one (InspectBatch({index})).
  bool Label(size_t index);

  /// The deterministic verdict the simulated human gives for `index`:
  /// ground truth XOR the seeded per-index error flip. Pure (no memory, no
  /// counters) and safe to call concurrently with const access — this is
  /// the function an AnswerProvider's crowd workers evaluate so that
  /// out-of-band answers are indistinguishable from inline ones.
  bool InlineAnswer(size_t index) const;

  /// Routes fresh inspections through `provider` (nullptr restores inline
  /// answering). Already-remembered answers are still served from memory
  /// without consulting the provider.
  void SetAnswerProvider(AnswerProvider provider) {
    provider_ = std::move(provider);
  }

  /// Batch inspection: answers for `indices`, parallel to the input. The
  /// distinct unanswered indices (first-occurrence order) are claimed in
  /// the answer memory, answered in one go — inline or by the provider —
  /// and recorded, then the whole batch is served from memory. Each
  /// DISTINCT pair is charged once, and every index counts as a request.
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

  /// True if the pair was already inspected (or preloaded).
  bool WasAsked(size_t index) const { return answers_.Known(index); }

  /// The remembered answer for an already-inspected pair (free lookup; does
  /// not count as a request). Precondition: WasAsked(index).
  bool CachedAnswer(size_t index) const { return answers_.Answer(index); }

  /// Moves every remembered answer to its pair's index after the workload
  /// grew by Workload::MergeSorted, which returned `landed` (the ascending
  /// positions of the inserted pairs). One ascending pass; the counters are
  /// left alone — no answer is gained, lost or re-paid.
  void MoveForInsertions(const std::vector<size_t>& landed) {
    answers_.MoveForInsertions(landed);
  }

  /// Bytes of answer memory currently held (paged bitmap + page table);
  /// OracleTest.AnswerMemoryStaysPagedAndLean bounds it per pair.
  size_t AnswerMemoryBytes() const { return answers_.MemoryBytes(); }

 private:
  const data::Workload* workload_;
  double error_rate_;
  uint64_t seed_;
  size_t total_requests_ = 0;
  size_t inspected_ = 0;
  size_t preloaded_ = 0;
  PagedAnswerBitmap answers_;
  AnswerProvider provider_;  // nullptr: answer inline (the default)
};

}  // namespace humo::core
