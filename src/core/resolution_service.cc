#include "core/resolution_service.h"

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

// --- ResolutionService ---

ResolutionService::ResolutionService(ResolutionServiceOptions options,
                                     QualityRequirement req)
    : resolver_(options.streaming, req),
      published_workload_(std::make_shared<const data::Workload>()) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  PublishLocked(/*refresh=*/true);  // version 1: the empty snapshot
}

EpochReport ResolutionService::Ingest(data::Shard shard) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  EpochReport report = resolver_.Ingest(std::move(shard));
  // The one place the cumulative workload grows: copy it once for the
  // snapshots to share and extend the universe by the pairs that landed.
  if (!resolver_.landed().empty()) {
    published_workload_ =
        std::make_shared<const data::Workload>(resolver_.cumulative());
    universe_ = entity::ExtendRecords(universe_, *published_workload_,
                                      resolver_.landed(), /*options=*/{});
  }
  PublishLocked(/*refresh=*/false);
  return report;
}

bool ResolutionService::RequestCertification() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  last_cert_ = resolver_.Certify();
  // A failed certification may have inspected pairs without refreshing.
  PublishLocked(/*refresh=*/!last_cert_->ok());
  return true;
}

bool ResolutionService::SubmitReview(const data::InstancePair& pair,
                                     bool verdict) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const size_t idx = resolver_.cumulative().IndexOfSorted(pair);
  if (idx >= resolver_.cumulative().size()) return false;  // not arrived yet
  if (resolver_.oracle().WasAsked(idx)) return false;      // already answered
  // The pair is in the cumulative workload, so the resolver finds it, and
  // its oracle moves the answer across later interior merges like any other.
  resolver_.PreloadEvidence(pair, verdict);
  reviews_folded_.fetch_add(1, std::memory_order_relaxed);
  review_since_publish_ = true;
  return true;
}

size_t ResolutionService::EnqueueReview(
    const std::vector<data::InstancePair>& pairs) {
  // The simulated human's verdict depends on the pair's index (its error
  // flip is seeded per index), which an interior merge shifts, so read it
  // under the writer lock; SubmitReview then re-checks the skip rules.
  std::vector<std::pair<data::InstancePair, bool>> verdicts;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    for (const data::InstancePair& pair : pairs) {
      const size_t idx = resolver_.cumulative().IndexOfSorted(pair);
      if (idx >= resolver_.cumulative().size()) continue;  // not arrived yet
      verdicts.emplace_back(pair, resolver_.oracle().InlineAnswer(idx));
    }
  }
  size_t accepted = 0;
  for (const auto& [pair, verdict] : verdicts) {
    accepted += SubmitReview(pair, verdict) ? 1 : 0;
  }
  return accepted;
}

Result<StreamingCertificate> ResolutionService::DrainToQuiescence() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (review_since_publish_) PublishLocked(/*refresh=*/true);
  if (!last_cert_.has_value()) {
    return Status::FailedPrecondition(
        "DrainToQuiescence: no certification was requested");
  }
  return *last_cert_;
}

std::shared_ptr<const ResolutionSnapshot> ResolutionService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

void ResolutionService::PublishLocked(bool refresh) {
  // After a review the provisional serving state must see the new
  // evidence. Right after Ingest or Certify it already does, and a second
  // refresh would recompute the same labels and estimates. Either way the
  // refresh writes only serving state (it reads the evidence and the last
  // certificate's model), so publishing never perturbs the resolver's
  // deterministic state, and a service run and a bare-resolver run through
  // the same schedule stay bit-identical.
  const EpochReport& report =
      refresh ? resolver_.RefreshServing() : resolver_.serving_report();

  review_since_publish_ = false;

  auto snap = std::make_shared<ResolutionSnapshot>();
  snap->version_ = publish_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap->epochs_ingested_ = resolver_.epochs_ingested();
  snap->quality_.has_estimate = report.has_estimate;
  snap->quality_.precision = report.est_precision;
  snap->quality_.recall = report.est_recall;

  // Serve certificate labels only while the certificate is CURRENT: issued
  // at this epoch, covering every pair, with no evidence folded since
  // (total_inspections moved => review verdicts the certificate never saw).
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
  // snapshot so EntityOf reads stay wait-free.
  snap->entities_ = std::make_shared<entity::EntityClustering>(
      entity::EntityClustering::FromUniverse(universe_, snap->labels_));
  snap->checksum_ = snap->ComputeChecksum();

  std::atomic_store(&snapshot_,
                    std::shared_ptr<const ResolutionSnapshot>(std::move(snap)));
}

}  // namespace humo::core
