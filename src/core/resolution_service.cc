#include "core/resolution_service.h"

#include <cassert>
#include <utility>

namespace humo::core {

// --- ResolutionSnapshot ---

uint64_t ResolutionSnapshot::ComputeChecksum() const {
  // FNV-1a. One byte per label: a label is 0/1, so the low byte carries it.
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t byte) {
    h ^= byte & 0xFFu;
    h *= 1099511628211ULL;
  };
  const auto mix64 = [&mix](uint64_t v) {
    for (int b = 0; b < 8; ++b) mix(v >> (8 * b));
  };
  mix64(version_);
  mix64(epochs_ingested_);
  mix(quality_.has_estimate ? 1u : 0u);
  mix(quality_.certified ? 1u : 0u);
  mix64(labels_.size());
  for (const int label : labels_) mix(static_cast<uint64_t>(label));
  // The entity view is derived state, but folding its checksum in means a
  // torn clustering is as detectable as a torn label vector.
  mix64(entities_ != nullptr ? entities_->Checksum() : 0);
  return h;
}

// --- AsyncOracleQueue ---

AsyncOracleQueue::AsyncOracleQueue(size_t workers) {
  workers_.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncOracleQueue::~AsyncOracleQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void AsyncOracleQueue::SubmitReview(const data::InstancePair& pair,
                                    bool answer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty()) {
      // Synchronous crowd: the verdict is delivered immediately; it still
      // folds in only at the next epoch boundary.
      completed_.push_back({pair, answer});
      return;
    }
    pending_.push_back({pair, answer});
  }
  work_cv_.notify_one();
}

std::vector<AsyncOracleQueue::Review> AsyncOracleQueue::TakeCompleted() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Review> out;
  out.swap(completed_);
  return out;
}

void AsyncOracleQueue::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_.empty(); });
}

void AsyncOracleQueue::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (stop_) return;
    completed_.push_back(std::move(pending_.front()));
    pending_.pop_front();
    if (pending_.empty()) done_cv_.notify_all();
  }
}

// --- ResolutionService ---

ResolutionService::ResolutionService(ResolutionServiceOptions options,
                                     QualityRequirement req)
    : options_(options),
      req_(req),
      resolver_(options_.streaming, req_),
      queue_(options_.crowd_workers),
      published_workload_(std::make_shared<const data::Workload>()) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  PublishLocked(/*refresh=*/true);  // version 1: the empty snapshot
}

EpochReport ResolutionService::Ingest(data::Shard shard) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // Epoch boundary: fold BEFORE the merge, so the resolver moves the folded
  // answers across an interior merge like any others.
  FoldCompletedReviewsLocked();
  EpochReport report = resolver_.Ingest(std::move(shard));
  // The one place the cumulative workload grows: copy it once for the
  // snapshots to share and extend the universe by the pairs that landed.
  if (!resolver_.landed().empty()) {
    published_workload_ =
        std::make_shared<const data::Workload>(resolver_.cumulative());
    universe_ = entity::ExtendRecords(universe_, *published_workload_,
                                      resolver_.landed(), options_.entity);
  }
  PublishLocked(/*refresh=*/false);
  return report;
}

bool ResolutionService::RequestCertification() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  FoldCompletedReviewsLocked();
  last_cert_ = resolver_.Certify();
  // A failed certification may have inspected pairs without refreshing.
  PublishLocked(/*refresh=*/!last_cert_->ok());
  return true;
}

size_t ResolutionService::EnqueueReview(
    const std::vector<data::InstancePair>& pairs) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  size_t enqueued = 0;
  for (const data::InstancePair& pair : pairs) {
    const size_t idx = resolver_.cumulative().IndexOfSorted(pair);
    if (idx >= resolver_.cumulative().size()) continue;  // not arrived yet
    if (resolver_.oracle().WasAsked(idx)) continue;      // already answered
    // The verdict is computed HERE, under the writer lock, against the
    // current index — a review answer is a pure function of the pair, so
    // computing it at submit time and delivering it later changes latency,
    // never the value. (Workers must not compute review answers themselves:
    // the pair's index shifts under interior merges.)
    queue_.SubmitReview(pair, resolver_.oracle().InlineAnswer(idx));
    ++enqueued;
  }
  return enqueued;
}

Result<StreamingCertificate> ResolutionService::DrainToQuiescence() {
  queue_.WaitIdle();
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (FoldCompletedReviewsLocked() > 0) PublishLocked(/*refresh=*/true);
  if (!last_cert_.has_value()) {
    return Status::FailedPrecondition(
        "DrainToQuiescence: no certification was requested");
  }
  return *last_cert_;
}

std::shared_ptr<const ResolutionSnapshot> ResolutionService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

size_t ResolutionService::FoldCompletedReviewsLocked() {
  size_t folded = 0;
  for (const AsyncOracleQueue::Review& review : queue_.TakeCompleted()) {
    // EnqueueReview accepted the pair only once it was in the cumulative
    // workload, and Workload::MergeSorted only adds pairs, so it is found.
    const bool found = resolver_.PreloadEvidence(review.pair, review.answer);
    assert(found);
    folded += found ? 1 : 0;
  }
  reviews_folded_.fetch_add(folded, std::memory_order_relaxed);
  return folded;
}

void ResolutionService::PublishLocked(bool refresh) {
  // After a review fold the provisional serving state must see the new
  // evidence. Right after Ingest or Certify it already does, and a second
  // refresh would recompute the same labels and estimates. Either way the
  // refresh writes only serving state (it reads the evidence and the last
  // certificate's model), so publishing never perturbs the resolver's
  // deterministic state, and a service run and a bare-resolver run through
  // the same schedule stay bit-identical.
  const EpochReport& report =
      refresh ? resolver_.RefreshServing() : resolver_.serving_report();

  auto snap = std::make_shared<ResolutionSnapshot>();
  snap->version_ = publish_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap->epochs_ingested_ = resolver_.epochs_ingested();
  snap->quality_.has_estimate = report.has_estimate;
  snap->quality_.precision = report.est_precision;
  snap->quality_.recall = report.est_recall;

  // Serve certificate labels only while the certificate is CURRENT: issued
  // at this epoch, covering every pair, with no evidence folded since
  // (total_inspections moved => review answers the certificate never saw).
  const StreamingCertificate* cert = resolver_.last_certificate();
  const bool cert_current =
      cert != nullptr && cert->epoch == resolver_.epochs_ingested() &&
      cert->resolution.labels.size() == resolver_.cumulative().size() &&
      cert->total_inspections == resolver_.total_inspections();
  snap->quality_.certified = cert_current && cert->certified;
  snap->labels_ =
      cert_current ? cert->resolution.labels : resolver_.provisional_labels();
  snap->workload_ = published_workload_;
  // Entity view: canonical clustering of the served labels, frozen with the
  // snapshot so EntityOf/MembersOf reads stay wait-free.
  snap->entities_ = std::make_shared<entity::EntityClustering>(
      entity::EntityClustering::FromUniverse(universe_, snap->labels_));
  snap->checksum_ = snap->ComputeChecksum();

  std::atomic_store(&snapshot_,
                    std::shared_ptr<const ResolutionSnapshot>(std::move(snap)));
}

}  // namespace humo::core
