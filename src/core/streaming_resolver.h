#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/risk_aware_optimizer.h"
#include "core/solution.h"
#include "data/workload_stream.h"

namespace humo::core {

/// Which certification machinery Certify() drives over the cumulative
/// workload.
enum class StreamCertifier {
  kSamp,  ///< partial sampling + GP bounds, full DH inspection (§VI)
  kRisk,  ///< SAMP's DH, risk-ordered partial inspection (r-HUMO style)
};

/// Unit-subset size of the evolving partition (the paper fixes 200).
inline constexpr size_t kStreamingSubsetSize = 200;

struct StreamingOptions {
  StreamCertifier certifier = StreamCertifier::kSamp;
  /// Sampling configuration every certifier starts from (S0 / Algorithm 1).
  /// The same options must be used for the one-shot comparison run when
  /// checking the bit-identity contract.
  PartialSamplingOptions sampling;
};

/// What one epoch's ingest did and what the machine-side serving state says
/// afterwards. No field involves fresh oracle traffic — epochs are free of
/// human work by design (see StreamingResolver).
struct EpochReport {
  size_t epoch = 0;
  size_t pairs_arrived = 0;
  size_t pairs_total = 0;
  size_t num_subsets = 0;
  /// True when the shard merged as a pure tail append, so pair indices,
  /// oracle answers, subset statistics, and GP warm-start state all
  /// survived the merge untouched.
  bool pure_append = false;
  /// Distinct pairs with a carried human answer after this epoch.
  size_t evidence_pairs = 0;
  /// True once a Certify() has succeeded, so a certificate's subset model
  /// exists to estimate from; the est_* fields below are then plug-in
  /// posterior-mean estimates of the quality of provisional_labels() — a
  /// serving-time health signal, NOT a certificate (no confidence attached;
  /// Certify() issues those). False before the first certificate, when the
  /// labels follow the similarity midpoint.
  bool has_estimate = false;
  double est_precision = 0.0;
  double est_recall = 0.0;
};

/// Certificate of one Certify() call: the optimizer solution, the final
/// labeling over the cumulative workload, and the cost accounting that the
/// streaming contracts are stated in.
struct StreamingCertificate {
  HumoSolution solution;
  ResolutionResult resolution;
  QualityRequirement req;
  /// True when the certifier established the requirement (SAMP certifies by
  /// construction on success; kRisk reports its stop condition).
  bool certified = false;
  /// Certified lower bounds (kRisk only; 0 for SAMP, whose guarantee is the
  /// req itself at confidence theta).
  double precision_lb = 0.0;
  double recall_lb = 0.0;
  /// Shards ingested when this certificate was issued.
  size_t epoch = 0;
  /// Distinct pairs this certification freshly inspected.
  size_t fresh_inspections = 0;
  /// Pairs inside the certified DH whose answer predated this certification
  /// — the inspections that re-certification avoided relative to a cold
  /// one-shot run.
  size_t reused_answers = 0;
  /// Lifetime distinct pairs inspected across every epoch and certification
  /// of this resolver.
  size_t total_inspections = 0;
};

/// Streaming epoch-based resolution: incremental HUMO over arriving shards.
///
/// HUMO certifies precision/recall on a static pair set; a serving system
/// sees the workload arrive in shards. This resolver maintains, across
/// epochs, everything a certification needs — the sorted cumulative
/// workload (O(n + m) merge per epoch instead of a re-sort), the subset
/// partition (tail-append fast path), the oracle's answer memory (moved
/// across an interior merge to the indices Workload::MergeSorted reports,
/// one ascending pass, counters untouched), the EstimationContext's
/// subset-statistics cache and GP warm-start state (carried across pure
/// tail appends, dropped when a merge invalidates them), and the subset
/// model of the last certificate, which serving reads between certificates.
///
/// Human interaction is epoch-batched and lazy (the CrowdER batching model
/// taken to its conclusion): Ingest() never contacts the oracle — it only
/// updates machine-side state and the provisional labeling/estimates —
/// while Certify() runs the configured SAMP or RISK machinery over the
/// cumulative workload, paying only for pairs no earlier epoch answered.
/// This is what makes the headline contracts hold simultaneously:
///
///  * At any shard count and any thread count, ingesting a whole stream and
///    certifying once yields a partition, labeling, and certificate
///    bit-identical to the one-shot run on the concatenated workload, at
///    exactly the one-shot oracle cost (== one-shot SAMP for kSamp, <= it
///    for kRisk), with zero duplicate oracle requests.
///  * Re-certifying after more shards arrive replays no human work: every
///    carried answer is served from memory, so the new certificate costs
///    only the fresh pairs the new evidence demands. The resolver's oracle
///    is error-free, so after an interior (non-append) merge history the
///    re-certified result is again bit-identical to a one-shot run on the
///    grown workload — just cheaper by exactly the reused evidence. On pure
///    tail-append streams the carried subset statistics are additionally
///    reused as-is (their subsets' contents are provably unchanged), which
///    is cheaper still, at the price of the bitwise comparison against a
///    cold run (the cold run would redraw those samples).
///
/// Serving has one estimation path, the certifier's. Carried answers are
/// served verbatim. Once a Certify() has succeeded, every other pair takes
/// the label of its subset's posterior: the certificate's GpSubsetModel
/// prior, evaluated at the subset's current average similarity, conditioned
/// on the subset's carried answers by ConditionSubset (match iff the
/// posterior rate is >= 0.5). Before the first certificate there is no
/// model (Ingest never contacts the oracle), and the similarity midpoint
/// splits the workload. A failed Certify() keeps the last model. No GP is
/// fitted outside the certifier.
class StreamingResolver {
 public:
  StreamingResolver(StreamingOptions options, QualityRequirement req);

  /// Non-copyable, non-movable: the partition, oracle, and context all
  /// point into the resolver's own cumulative workload, so a copied or
  /// moved instance would stay wired to the source's internals.
  StreamingResolver(const StreamingResolver&) = delete;
  StreamingResolver& operator=(const StreamingResolver&) = delete;

  /// Merges one arriving shard into the cumulative workload and refreshes
  /// the machine-side serving state. Never contacts the oracle. Returns the
  /// epoch's report.
  EpochReport Ingest(data::Shard shard);

  /// Runs the configured certifier over the cumulative workload, reusing
  /// every carried answer, and returns the certificate (also retained, see
  /// last_certificate()). Fails on an empty workload or when the underlying
  /// optimizer fails.
  Result<StreamingCertificate> Certify();

  const data::Workload& cumulative() const { return cumulative_; }
  /// Where the last Ingest's pairs landed in cumulative(): the ascending
  /// positions Workload::MergeSorted returned (empty after an empty shard
  /// and before the first Ingest). Every other position holds a pair that
  /// was already there, in its old order.
  const std::vector<size_t>& landed() const { return landed_; }
  const SubsetPartition& partition() const { return partition_; }

  /// The resolver-owned oracle (counters; the current epoch's view).
  const Oracle& oracle() const { return oracle_; }

  /// Current machine-side labeling of every cumulative pair: carried
  /// answers verbatim, everything else by its subset's posterior rate under
  /// the last certificate's model (>= 0.5 is a match; see the class
  /// comment) or, before any certificate, by the similarity midpoint.
  /// Refreshed by every Ingest() and Certify().
  const std::vector<int>& provisional_labels() const {
    return provisional_labels_;
  }

  size_t epochs_ingested() const { return epochs_ingested_; }

  /// Seeds a human answer bought outside the resolver (the resolution
  /// service's review path, ResolutionService::SubmitReview): locates
  /// `pair` by identity — (left, right, similarity), robust to the index
  /// shifts interior merges cause — and preloads the answer into the
  /// oracle (free, idempotent; see Oracle::Preload). Returns false when the
  /// pair is not part of the cumulative workload; merges only add pairs, so
  /// a pair found once is found at every later epoch. Call
  /// RefreshServing() after a burst of preloads so the provisional labeling
  /// and estimates see the new evidence.
  bool PreloadEvidence(const data::InstancePair& pair, bool answer);

  /// Recomputes the provisional labels and plug-in estimates from the
  /// current evidence under the last certificate's model, and returns a
  /// report carrying the fresh estimate fields. O(n) plus one GP posterior
  /// pass over the subsets; no fit. Unlike Ingest, no epoch is counted —
  /// this is the post-fold refresh for callers of PreloadEvidence.
  const EpochReport& RefreshServing();

  /// The report of the last provisional refresh — the one Ingest(),
  /// Certify() or RefreshServing() ran last: its epoch is epochs_ingested()
  /// at that refresh, the size, evidence and estimate fields describe
  /// provisional_labels(). Current until the next PreloadEvidence or a
  /// Certify() that fails, so a caller that just ingested or certified can
  /// read it instead of refreshing again.
  const EpochReport& serving_report() const { return serving_; }

  /// The most recent certificate, or nullptr before the first Certify().
  const StreamingCertificate* last_certificate() const {
    return last_certificate_ ? &*last_certificate_ : nullptr;
  }

  /// Lifetime distinct pairs inspected across all epochs/certifications.
  size_t total_inspections() const {
    return oracle_.preloaded() + oracle_.cost();
  }

  /// Lifetime duplicate oracle requests. The streaming discipline keeps
  /// them at zero: every consumer filters already-answered pairs before
  /// requesting.
  size_t total_duplicate_requests() const {
    return oracle_.duplicate_requests();
  }

 private:
  StreamingOptions options_;
  QualityRequirement req_;
  data::Workload cumulative_;
  std::vector<size_t> landed_;  // see landed()
  SubsetPartition partition_;
  Oracle oracle_;
  EstimationContext ctx_;

  size_t epochs_ingested_ = 0;
  std::optional<StreamingCertificate> last_certificate_;

  /// The sampling outcome whose subset model the last successful Certify()
  /// built (null before one). Held here: the next Ingest drops the
  /// context's copy.
  std::shared_ptr<const PartialSamplingOutcome> serving_model_;
  std::vector<int> provisional_labels_;
  EpochReport serving_;  // the last refresh; see serving_report()
};

}  // namespace humo::core
