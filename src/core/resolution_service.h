#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/streaming_resolver.h"
#include "data/workload.h"
#include "data/workload_stream.h"
#include "entity/entity_clustering.h"

namespace humo::core {

/// Plug-in quality summary a snapshot serves alongside its labels.
struct QualityEstimate {
  /// True once a certification has succeeded: precision and recall are
  /// then plug-in estimates under its subset model, conditioned on every
  /// carried answer (see StreamingResolver). False before, when the labels
  /// follow the similarity midpoint.
  bool has_estimate = false;
  double precision = 0.0;
  double recall = 0.0;
  /// True when the snapshot's labels come from the latest certificate and
  /// no pairs arrived after it — the guarantee (not just the estimate)
  /// covers exactly what readers see.
  bool certified = false;
};

/// One immutable published view of the resolution state: everything a
/// reader needs, copied out of the resolver at an epoch boundary and never
/// mutated afterwards. Readers hold it through a shared_ptr, so a snapshot
/// outlives its epoch for as long as anyone still reads it.
class ResolutionSnapshot {
 public:
  /// Publish sequence number, strictly increasing across snapshots.
  size_t version() const { return version_; }
  size_t epochs_ingested() const { return epochs_ingested_; }
  size_t pairs() const { return labels_.size(); }
  const QualityEstimate& quality() const { return quality_; }

  /// Label of every pair in cumulative sorted order: carried human answers
  /// verbatim, machine labels elsewhere (certificate labels when
  /// quality().certified, the resolver's provisional labels otherwise).
  const std::vector<int>& labels() const { return labels_; }
  int LabelOf(size_t index) const { return labels_[index]; }

  /// Batch lookup: labels for `indices`, parallel to the input.
  std::vector<int> BatchLabels(const std::vector<size_t>& indices) const {
    std::vector<int> out(indices.size());
    for (size_t t = 0; t < indices.size(); ++t) out[t] = labels_[indices[t]];
    return out;
  }

  /// This snapshot's own sorted workload copy (identity columns; ground
  /// truth stays behind the Oracle contract).
  const data::Workload& workload() const { return *workload_; }

  /// ENTITY VIEW of this snapshot: the canonical clustering of the served
  /// labels, built once at publish time and frozen with the rest of the
  /// snapshot. Reads are wait-free — a binary search / CSR slice over
  /// immutable storage, same contract as labels().
  const entity::EntityClustering& entities() const { return *entities_; }

  /// Entity of `record` under this snapshot's labels, or nullopt when the
  /// record has not been mentioned by any ingested pair.
  std::optional<uint32_t> EntityOf(entity::RecordRef record) const {
    return entities_->EntityOf(record);
  }

  /// Members of entity `entity`, ascending record order. The view points
  /// into the snapshot's storage — valid while the snapshot is held.
  entity::EntityClustering::MemberRange MembersOf(uint32_t entity) const {
    return entities_->MembersOf(entity);
  }

  size_t num_entities() const { return entities_->num_entities(); }

  /// Recomputes the FNV-1a checksum over the scalar fields, the label bytes
  /// and the entity checksum that publish stored — the stress tests' proof
  /// that no reader can observe a torn or half-published snapshot.
  bool Validate() const { return ComputeChecksum() == checksum_; }

 private:
  friend class ResolutionService;

  uint64_t ComputeChecksum() const;

  size_t version_ = 0;
  size_t epochs_ingested_ = 0;
  QualityEstimate quality_;
  std::vector<int> labels_;
  /// Copy of the cumulative workload at publish time (identity lookup
  /// needs the sorted similarity/id columns of THIS epoch, not the moving
  /// resolver ones). A publish copies only when the workload grew since the
  /// last one; snapshots of an unchanged workload share one copy.
  std::shared_ptr<const data::Workload> workload_;
  /// Entity clustering of labels_ over workload_, built at publish time.
  /// Its record keys are the service's carried universe's, shared by every
  /// snapshot of the same workload.
  std::shared_ptr<const entity::EntityClustering> entities_;
  uint64_t checksum_ = 0;
};

/// Asynchronous human-work queue between a certifier and its (simulated)
/// crowd: the pending-review-queue pattern. Two kinds of traffic flow
/// through the same worker threads:
///
///  * Certification batches (InspectBlocking): the certifier enqueues the
///    distinct unanswered indices of one inspection batch and blocks until
///    the crowd has answered all of them. Workers claim fixed-size chunks,
///    so one large batch is answered by several humans concurrently and
///    chunk completions arrive out of order — answers land in
///    index-addressed slots, so the assembled batch is deterministic.
///  * Review requests (SubmitReview): fire-and-forget inspection of pairs
///    someone flagged for human review. Verdicts are computed at submit
///    time (an answer is a pure function of the question — see
///    Oracle::InlineAnswer) but ARRIVE out of band: workers deliver them to
///    the completed buffer whenever they get to them, and the service folds
///    the completed batch in at the next epoch boundary.
class AsyncOracleQueue {
 public:
  /// Computes the crowd's verdict for a pair index. Called by worker
  /// threads for certification batches; must be thread-safe and pure
  /// (Oracle::InlineAnswer is).
  using ComputeFn = std::function<bool(size_t)>;

  struct CompletedReview {
    data::InstancePair pair;
    bool answer = false;
  };

  /// `workers` = crowd size; 0 answers everything inline on the calling
  /// thread (the degenerate synchronous crowd).
  AsyncOracleQueue(ComputeFn compute, size_t workers);
  ~AsyncOracleQueue();

  AsyncOracleQueue(const AsyncOracleQueue&) = delete;
  AsyncOracleQueue& operator=(const AsyncOracleQueue&) = delete;

  /// Answers for `indices` (distinct), parallel to the input. Blocks until
  /// the crowd finishes this batch; other traffic interleaves freely.
  std::vector<char> InspectBlocking(const std::vector<size_t>& indices);

  /// Enqueues one review verdict for out-of-band delivery.
  void SubmitReview(const data::InstancePair& pair, bool answer);

  /// Drains the completed-review buffer (delivery order).
  std::vector<CompletedReview> TakeCompleted();

  /// Blocks until no work is queued or in flight.
  void WaitIdle();

 private:
  /// Pairs per worker claim inside one certification batch.
  static constexpr size_t kChunk = 128;

  struct Batch {
    const std::vector<size_t>* indices = nullptr;
    std::vector<char>* answers = nullptr;
    size_t next = 0;       // first unclaimed offset; guarded by mu_
    size_t remaining = 0;  // unanswered pairs; guarded by mu_
    bool done = false;
  };

  struct Task {
    Batch* batch = nullptr;             // certification chunk when set
    CompletedReview review;             // review delivery otherwise
  };

  void WorkerLoop();
  /// Claims and answers one chunk of `batch`. Returns true when the batch
  /// completed with this chunk. Caller holds no lock; this takes mu_.
  bool RunChunk(Batch* batch);

  ComputeFn compute_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: tasks available / stop
  std::condition_variable done_cv_;   // requesters: batch done / queue idle
  std::deque<Task> tasks_;            // guarded by mu_
  std::vector<CompletedReview> completed_;  // guarded by mu_
  size_t in_flight_ = 0;              // claimed, not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

struct ResolutionServiceOptions {
  StreamingOptions streaming;
  /// Crowd worker threads answering queue traffic; 0 = synchronous crowd.
  size_t crowd_workers = 2;
  /// How the workload's id columns map onto record sources for the
  /// snapshot's entity view (default: two-table ER).
  entity::ClusteringOptions entity;
};

/// Always-on serving layer over StreamingResolver: separates MUTATION
/// EPOCHS from READ SNAPSHOTS so millions of lookups never contend with
/// ingest or certification.
///
/// Write side (Ingest / RequestCertification / EnqueueReview fold-ins) is
/// serialized on one internal writer lock; every mutation ends by
/// publishing a fresh immutable ResolutionSnapshot via an atomic
/// shared_ptr swap (RCU-style: readers pin the epoch they loaded, old
/// epochs are reclaimed when the last reader drops them).
///
/// Read side (snapshot) never takes the writer lock and never blocks on
/// mutation — a lookup is an atomic snapshot load plus an array read
/// against frozen storage.
///
/// Human work is asynchronous: certification runs on a background thread
/// whose fresh oracle inspections are routed through the AsyncOracleQueue
/// (crowd workers answer out of band; the certifier folds each completed
/// batch in and continues), and review verdicts submitted via
/// EnqueueReview fold in at the next epoch boundary through
/// StreamingResolver::PreloadEvidence, which finds each pair by identity.
/// Because the crowd answers with exactly Oracle::InlineAnswer's verdicts,
/// DRAINING TO QUIESCENCE
/// (all queue traffic answered + folded, certification finished) leaves
/// labels, oracle cost, and certificates bit-identical to driving the
/// synchronous StreamingResolver through the same schedule — asserted by
/// tests and by bench_serving's self-check.
class ResolutionService {
 public:
  ResolutionService(ResolutionServiceOptions options, QualityRequirement req);
  ~ResolutionService();

  ResolutionService(const ResolutionService&) = delete;
  ResolutionService& operator=(const ResolutionService&) = delete;

  // --- Write side (serialized internally; callable from any thread) ---

  /// Folds completed reviews (epoch boundary), ingests the shard, publishes
  /// a snapshot. Blocks while a certification holds the writer lock.
  EpochReport Ingest(data::Shard shard);

  /// Starts an asynchronous certification over the pairs ingested so far.
  /// Returns once the background certifier OWNS the writer lock — not when
  /// it finishes — so the caller's next Ingest provably serializes after
  /// the certification and the certificate covers exactly the epochs
  /// ingested before this call (mutex wakeup order is not FIFO; returning
  /// any earlier would let a subsequent Ingest overtake the certifier and
  /// make the certified prefix nondeterministic). Readers keep serving the
  /// last snapshot while the crowd answers; the certificate publishes when
  /// done. Returns false when a certification is already in flight (the
  /// request is dropped, not queued). Must not be called while holding a
  /// mutation open elsewhere on the same thread.
  bool RequestCertification();

  /// True while a background certification is running.
  bool certification_in_flight() const { return cert_running_.load(); }

  /// Enqueues pairs for out-of-band human review. Pairs not yet ingested or
  /// already answered are skipped; returns the number actually enqueued.
  /// Completed verdicts fold in at the next epoch boundary (Ingest,
  /// certification start, or DrainToQuiescence).
  size_t EnqueueReview(const std::vector<data::InstancePair>& pairs);

  /// Blocks until every enqueued review verdict has been delivered by the
  /// crowd workers (delivered, not folded — folding still happens at the
  /// next epoch boundary). Calling this immediately before
  /// RequestCertification pins the certified evidence set: the certifier's
  /// boundary fold then sees EVERY review enqueued so far, independent of
  /// crowd-worker timing. Without it a slow worker can hold a verdict past
  /// the certification start, and — because risk-aware inspection is
  /// evidence-driven — certify against a different answer set than a rerun
  /// would. Must not be called while a certification is in flight (its
  /// oracle batches share the queue).
  void WaitForReviewDelivery() { queue_.WaitIdle(); }

  /// Waits until every queued crowd task is answered and the in-flight
  /// certification (if any) finished, folds the remaining completed
  /// reviews, publishes, and returns the latest certificate (error when no
  /// certification ever ran or the last one failed).
  Result<StreamingCertificate> DrainToQuiescence();

  // --- Read side (wait-free; never blocks on mutation) ---

  /// The last published snapshot; never null after construction.
  std::shared_ptr<const ResolutionSnapshot> snapshot() const;

  // --- Introspection ---

  size_t snapshots_published() const { return publish_count_.load(); }
  size_t reviews_folded() const { return reviews_folded_.load(); }

  /// Direct resolver access for the drain-equivalence checks in tests and
  /// bench_serving. NOT synchronized with the write side — only meaningful
  /// after DrainToQuiescence (or before any mutation started).
  const StreamingResolver& resolver_unsynchronized() const {
    return resolver_;
  }

 private:
  /// Epoch boundary: folds completed reviews into the resolver's oracle.
  /// Returns how many folded. Caller holds writer_mu_.
  size_t FoldCompletedReviewsLocked();
  /// Builds and atomically publishes a snapshot. `refresh` re-runs the
  /// resolver's serving refresh (RefreshServing) first; without it the
  /// snapshot serves the refresh the last Ingest or Certify ran, which must
  /// be current.
  /// Caller holds writer_mu_.
  void PublishLocked(bool refresh);
  /// Body of the background certification thread.
  void RunCertification();
  /// Joins a finished certifier thread. Caller holds cert_admin_mu_.
  void JoinCertifierLocked();

  ResolutionServiceOptions options_;
  QualityRequirement req_;

  /// Serializes every resolver mutation (ingest, certification, fold-in).
  std::mutex writer_mu_;
  StreamingResolver resolver_;  // guarded by writer_mu_

  /// Reviews whose pair was unknown at fold time (raced an interior merge);
  /// retried at the next epoch boundary. Guarded by writer_mu_.
  std::vector<AsyncOracleQueue::CompletedReview> deferred_reviews_;

  AsyncOracleQueue queue_;

  std::mutex cert_admin_mu_;
  std::thread cert_thread_;               // guarded by cert_admin_mu_
  std::atomic<bool> cert_running_{false};
  /// Handshake for RequestCertification's returns-after-lock-owned
  /// guarantee (see above).
  std::mutex cert_start_mu_;
  std::condition_variable cert_start_cv_;
  bool cert_started_ = false;  // guarded by cert_start_mu_
  std::optional<Result<StreamingCertificate>> last_cert_;  // writer_mu_

  /// The workload the last snapshot published and its record universe
  /// under options_.entity. When the cumulative workload grows, the next
  /// publish extends the universe (entity::ExtendRecords) instead of
  /// re-indexing every record. Guarded by writer_mu_.
  std::shared_ptr<const data::Workload> published_workload_;
  entity::RecordUniverse universe_;

  /// The published snapshot, swapped with std::atomic_store (RCU publish).
  std::shared_ptr<const ResolutionSnapshot> snapshot_;

  std::atomic<size_t> publish_count_{0};
  std::atomic<size_t> reviews_folded_{0};
};

}  // namespace humo::core
