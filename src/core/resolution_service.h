#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
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

  /// This snapshot's own sorted workload copy, for pair -> index lookup.
  /// The copy carries the ground-truth column too; only evaluation may
  /// read it (a resolver observes labels through its Oracle alone).
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
  /// resolver ones). Copied only by an Ingest that landed pairs; snapshots
  /// of an unchanged workload share one copy.
  std::shared_ptr<const data::Workload> workload_;
  /// Entity clustering of labels_ over workload_, built at publish time.
  /// Its record keys are the service's carried universe's, shared by every
  /// snapshot of the same workload.
  std::shared_ptr<const entity::EntityClustering> entities_;
  uint64_t checksum_ = 0;
};

/// Out-of-band delivery of human review verdicts: the pending-review-queue
/// pattern. SubmitReview enqueues a verdict that is already known (an
/// answer is a pure function of the question, see Oracle::InlineAnswer and
/// ResolutionService::EnqueueReview), and worker threads move it to the
/// completed buffer whenever they get to it, so verdicts ARRIVE at times
/// the submitter does not control. The service folds the completed buffer
/// in at the next epoch boundary. Certification never goes through this
/// queue: its inspections are answered inline by the resolver's oracle.
class AsyncOracleQueue {
 public:
  struct Review {
    data::InstancePair pair;
    bool answer = false;
  };

  /// `workers` = delivery threads; 0 delivers every review at submit time
  /// (the degenerate synchronous crowd).
  explicit AsyncOracleQueue(size_t workers);
  ~AsyncOracleQueue();

  AsyncOracleQueue(const AsyncOracleQueue&) = delete;
  AsyncOracleQueue& operator=(const AsyncOracleQueue&) = delete;

  /// Enqueues one review verdict for out-of-band delivery.
  void SubmitReview(const data::InstancePair& pair, bool answer);

  /// Drains the completed-review buffer (delivery order).
  std::vector<Review> TakeCompleted();

  /// Blocks until every submitted review has been delivered.
  void WaitIdle();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: reviews queued / stop
  std::condition_variable done_cv_;   // WaitIdle: queue drained
  std::deque<Review> pending_;        // submitted, not delivered; mu_
  std::vector<Review> completed_;     // delivered, not folded; mu_
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

struct ResolutionServiceOptions {
  StreamingOptions streaming;
  /// Threads delivering review verdicts (AsyncOracleQueue); 0 delivers
  /// each verdict at submit time.
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
/// Certification runs on the caller's thread under the writer lock and
/// answers its own inspections through the resolver's oracle, exactly as a
/// bare StreamingResolver does, so a certificate covers exactly the epochs
/// ingested before the request. Human REVIEW verdicts submitted via
/// EnqueueReview arrive out of band through the AsyncOracleQueue and fold
/// in at the next epoch boundary through StreamingResolver::PreloadEvidence,
/// which finds each pair by identity. Because a review verdict is exactly
/// Oracle::InlineAnswer's, DRAINING TO QUIESCENCE (every review delivered
/// and folded) leaves labels, oracle cost, and certificates bit-identical
/// to driving the synchronous StreamingResolver through the same schedule
/// — asserted by tests and by bench_serving's self-check.
class ResolutionService {
 public:
  ResolutionService(ResolutionServiceOptions options, QualityRequirement req);

  ResolutionService(const ResolutionService&) = delete;
  ResolutionService& operator=(const ResolutionService&) = delete;

  // --- Write side (serialized internally; callable from any thread) ---

  /// Folds completed reviews (epoch boundary), ingests the shard, publishes
  /// a snapshot. Blocks while another writer call holds the writer lock.
  EpochReport Ingest(data::Shard shard);

  /// Folds completed reviews (epoch boundary), certifies the pairs ingested
  /// so far on the calling thread and publishes the result; returns when the
  /// certificate is published. Readers keep serving the previous snapshot
  /// meanwhile. Always returns true: a request is never dropped, so two
  /// back-to-back requests both run (the second reuses the first's
  /// answers). The certificate itself is read through DrainToQuiescence()
  /// and the published snapshot.
  bool RequestCertification();

  /// Enqueues pairs for out-of-band human review. Pairs not yet ingested or
  /// already answered are skipped; returns the number actually enqueued.
  /// Completed verdicts fold in at the next epoch boundary (Ingest,
  /// RequestCertification, or DrainToQuiescence).
  size_t EnqueueReview(const std::vector<data::InstancePair>& pairs);

  /// Blocks until every enqueued review verdict has been delivered by the
  /// queue's threads (delivered, not folded — folding still happens at the
  /// next epoch boundary). Calling this immediately before
  /// RequestCertification pins the certified evidence set: the
  /// certification's boundary fold then sees EVERY review enqueued so far,
  /// independent of delivery timing. Without it a slow worker can hold a
  /// verdict past the certification start, and — because risk-aware
  /// inspection is evidence-driven — certify against a different answer set
  /// than a rerun would.
  void WaitForReviewDelivery() { queue_.WaitIdle(); }

  /// Waits until every enqueued review is delivered, folds the remaining
  /// completed reviews, publishes, and returns the latest certificate
  /// (error when no certification ever ran or the last one failed).
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
  /// Builds and atomically publishes a snapshot over published_workload_
  /// and universe_, which Ingest keeps current. `refresh` re-runs the
  /// resolver's serving refresh (RefreshServing) first; without it the
  /// snapshot serves the refresh the last Ingest or Certify ran, which must
  /// be current.
  /// Caller holds writer_mu_.
  void PublishLocked(bool refresh);

  ResolutionServiceOptions options_;
  QualityRequirement req_;

  /// Serializes every resolver mutation (ingest, certification, fold-in).
  std::mutex writer_mu_;
  StreamingResolver resolver_;  // guarded by writer_mu_

  /// Its destructor joins the delivery threads. Reviews still queued never
  /// touch the resolver (their verdicts were computed at enqueue time).
  AsyncOracleQueue queue_;

  std::optional<Result<StreamingCertificate>> last_cert_;  // writer_mu_

  /// A copy of the resolver's cumulative workload, shared by every
  /// snapshot until it grows, and its record universe under
  /// options_.entity. Ingest replaces both whenever pairs landed, extending
  /// the universe by them (entity::ExtendRecords) instead of re-indexing
  /// every record. Guarded by writer_mu_.
  std::shared_ptr<const data::Workload> published_workload_;
  entity::RecordUniverse universe_;

  /// The published snapshot, swapped with std::atomic_store (RCU publish).
  std::shared_ptr<const ResolutionSnapshot> snapshot_;

  std::atomic<size_t> publish_count_{0};
  std::atomic<size_t> reviews_folded_{0};
};

}  // namespace humo::core
