#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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

  /// Label of every pair in cumulative sorted order. When
  /// quality().certified these are the certificate's labels: carried human
  /// answers verbatim inside DH, and rank labels in D+ and D- even where a
  /// carried answer (a review verdict, say) contradicts the rank. Otherwise
  /// they are the resolver's provisional labels, which serve every carried
  /// answer verbatim and machine labels elsewhere.
  const std::vector<int>& labels() const { return labels_; }
  int LabelOf(size_t index) const { return labels_[index]; }

  /// This snapshot's own sorted workload copy, for pair -> index lookup.
  /// The copy carries the ground-truth column too; only evaluation may
  /// read it (a resolver observes labels through its Oracle alone).
  const data::Workload& workload() const { return *workload_; }

  /// ENTITY VIEW of this snapshot: the canonical clustering of the served
  /// labels (one entity id per record), built once at publish time and
  /// frozen with the rest of the snapshot. Reads are wait-free — a binary
  /// search and an array read over immutable storage, same contract as
  /// labels().
  const entity::EntityClustering& entities() const { return *entities_; }

  /// Entity of `record` under this snapshot's labels, or nullopt when the
  /// record has not been mentioned by any ingested pair.
  std::optional<uint32_t> EntityOf(entity::RecordRef record) const {
    return entities_->EntityOf(record);
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

struct ResolutionServiceOptions {
  StreamingOptions streaming;
  /// Changes nothing: review verdicts enter through SubmitReview on the
  /// caller's thread. Kept because the frozen bench/e2e/bench_e2e.cc sets
  /// it; remove it when that bench is re-cut.
  size_t crowd_workers = 2;
};

/// Always-on serving layer over StreamingResolver: separates MUTATION
/// EPOCHS from READ SNAPSHOTS so millions of lookups never contend with
/// ingest or certification.
///
/// Write side (Ingest / RequestCertification / SubmitReview) is serialized
/// on one internal writer lock; Ingest and RequestCertification end by
/// publishing a fresh immutable ResolutionSnapshot via an atomic shared_ptr
/// swap (RCU-style: readers pin the epoch they loaded, old epochs are
/// reclaimed when the last reader drops them).
///
/// Read side (snapshot) never takes the writer lock and never blocks on
/// mutation — a lookup is an atomic snapshot load plus an array read
/// against frozen storage.
///
/// Certification runs on the caller's thread under the writer lock and
/// answers its own inspections through the resolver's oracle, exactly as a
/// bare StreamingResolver does, so a certificate covers exactly the epochs
/// ingested before the request. Human REVIEW verdicts are input: a
/// reviewer submits one through SubmitReview, from any thread, and the
/// service enters it into the resolver's oracle at once through
/// StreamingResolver::PreloadEvidence, which finds the pair by identity.
/// The verdict may disagree with the truth. Provisional snapshots serve it
/// verbatim, and so do certified ones inside DH; in D+ and D- a certified
/// snapshot serves the certificate's rank label (see
/// ResolutionSnapshot::labels). Every writer call holds the lock, so a
/// review lands between two writer calls, and the service is at every
/// point the synchronous StreamingResolver with the same verdicts preloaded
/// at the same points in the schedule: labels, oracle cost and certificates
/// bit-identical — asserted by tests and by bench_serving's self-check.
class ResolutionService {
 public:
  ResolutionService(ResolutionServiceOptions options, QualityRequirement req);

  ResolutionService(const ResolutionService&) = delete;
  ResolutionService& operator=(const ResolutionService&) = delete;

  // --- Write side (serialized internally; callable from any thread) ---

  /// Ingests the shard and publishes a snapshot, which serves every review
  /// submitted before the call. Blocks while another writer call holds the
  /// writer lock.
  EpochReport Ingest(data::Shard shard);

  /// Certifies the pairs ingested so far, with every review submitted so
  /// far, on the calling thread and publishes the result; returns when the
  /// certificate is published. Readers keep serving the previous snapshot
  /// meanwhile. Always returns true: a request is never dropped, so two
  /// back-to-back requests both run (the second reuses the first's
  /// answers). The certificate itself is read through DrainToQuiescence()
  /// and the published snapshot.
  bool RequestCertification();

  /// Enters a human review verdict for `pair`. Accepted only when the pair
  /// has arrived and has no answer yet; returns whether it was. An accepted
  /// verdict is evidence from the next publish on (Ingest,
  /// RequestCertification or DrainToQuiescence), and every later
  /// certification reuses it.
  bool SubmitReview(const data::InstancePair& pair, bool verdict);

  /// The simulated reviewer: submits, for each pair that has arrived, the
  /// verdict of the resolver's oracle (Oracle::InlineAnswer, the ground
  /// truth unless the oracle has an error rate). Returns the number of
  /// verdicts SubmitReview accepted.
  size_t EnqueueReview(const std::vector<data::InstancePair>& pairs);

  /// Nothing to wait for: a submitted review is in the resolver when
  /// SubmitReview returns. Kept because the frozen bench/e2e/bench_e2e.cc
  /// calls it; remove it when that bench is re-cut.
  void WaitForReviewDelivery() {}

  /// Publishes once more when a review arrived after the last publish, and
  /// returns the latest certificate (error when no certification ever ran
  /// or the last one failed).
  Result<StreamingCertificate> DrainToQuiescence();

  // --- Read side (wait-free; never blocks on mutation) ---

  /// The last published snapshot; never null after construction.
  std::shared_ptr<const ResolutionSnapshot> snapshot() const;

  // --- Introspection ---

  size_t snapshots_published() const { return publish_count_.load(); }
  /// Reviews SubmitReview accepted, each entered once.
  size_t reviews_folded() const { return reviews_folded_.load(); }

  /// Direct resolver access for the drain-equivalence checks in tests and
  /// bench_serving. NOT synchronized with the write side — only meaningful
  /// after DrainToQuiescence (or before any mutation started).
  const StreamingResolver& resolver_unsynchronized() const {
    return resolver_;
  }

 private:
  /// Builds and atomically publishes a snapshot over published_workload_
  /// and universe_, which Ingest keeps current. `refresh` re-runs the
  /// resolver's serving refresh (RefreshServing) first; without it the
  /// snapshot serves the refresh the last Ingest or Certify ran, which must
  /// be current.
  /// Caller holds writer_mu_.
  void PublishLocked(bool refresh);

  /// Serializes every resolver mutation (ingest, certification, review).
  std::mutex writer_mu_;
  StreamingResolver resolver_;  // guarded by writer_mu_

  std::optional<Result<StreamingCertificate>> last_cert_;  // writer_mu_
  /// A review was entered after the last publish, so the published
  /// snapshot does not serve it yet. Guarded by writer_mu_.
  bool review_since_publish_ = false;

  /// A copy of the resolver's cumulative workload, shared by every
  /// snapshot until it grows, and its two-table record universe
  /// (entity::ClusteringOptions{}). Ingest replaces both whenever pairs
  /// landed, extending the universe by them (entity::ExtendRecords) instead
  /// of re-indexing every record. Guarded by writer_mu_.
  std::shared_ptr<const data::Workload> published_workload_;
  entity::RecordUniverse universe_;

  /// The published snapshot, swapped with std::atomic_store (RCU publish).
  std::shared_ptr<const ResolutionSnapshot> snapshot_;

  std::atomic<size_t> publish_count_{0};
  std::atomic<size_t> reviews_folded_{0};
};

}  // namespace humo::core
