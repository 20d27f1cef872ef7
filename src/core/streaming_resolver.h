#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/estimation_engine.h"
#include "core/hybrid_optimizer.h"
#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/risk_aware_optimizer.h"
#include "core/solution.h"
#include "data/workload_stream.h"
#include "gp/gp_regression.h"
#include "stats/stratified.h"

namespace humo::core {

/// Which certification machinery Certify() drives over the cumulative
/// workload.
enum class StreamCertifier {
  kSamp,  ///< partial sampling + GP bounds, full DH inspection (§VI)
  kHybr,  ///< hybrid re-extension (§VII)
  kRisk,  ///< SAMP's DH, risk-ordered partial inspection (r-HUMO style)
};

struct StreamingOptions {
  /// Unit-subset size of the evolving partition (the paper fixes 200).
  size_t subset_size = 200;
  StreamCertifier certifier = StreamCertifier::kSamp;
  /// Sampling configuration every certifier starts from (S0 / Algorithm 1).
  /// The same options must be used for the one-shot comparison run when
  /// checking the bit-identity contract.
  PartialSamplingOptions sampling;
  /// Extra configuration of the kHybr certifier; its `sampling` member is
  /// overridden by `sampling` above.
  HybridOptions hybrid;
  /// Extra configuration of the kRisk certifier; its `sampling` member is
  /// overridden by `sampling` above.
  RiskAwareOptions risk;
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
  /// True when the provisional GP refit rode GpRegression::ExtendedWith
  /// (rank-k factor append) instead of a from-scratch grid fit.
  bool gp_warm_extended = false;
  /// Distinct pairs with a carried human answer after this epoch.
  size_t evidence_pairs = 0;
  /// True when enough evidence exists for a provisional GP estimate; the
  /// est_* fields below are plug-in posterior-mean estimates of the quality
  /// of provisional_labels() — a serving-time health signal, NOT a
  /// certificate (no confidence attached; Certify() issues those).
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
  /// True when the certifier established the requirement (SAMP/HYBR certify
  /// by construction on success; kRisk reports its stop condition).
  bool certified = false;
  /// Certified lower bounds (kRisk only; 0 for SAMP/HYBR, whose guarantee
  /// is the req itself at confidence theta).
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
/// partition (tail-append fast path), the oracle's answer memory (re-keyed
/// across interior merges via Oracle::Preload), the EstimationContext's
/// subset-statistics cache and GP warm-start state (carried across pure
/// tail appends, dropped when a merge invalidates them), and a provisional
/// GP over the accumulated evidence (append-refitted via
/// GpRegression::ExtendedWith when only new pins arrived).
///
/// Human interaction is epoch-batched and lazy (the CrowdER batching model
/// taken to its conclusion): Ingest() never contacts the oracle — it only
/// updates machine-side state and the provisional labeling/estimates —
/// while Certify() runs the configured SAMP/HYBR/RISK machinery over the
/// cumulative workload, paying only for pairs no earlier epoch answered.
/// This is what makes the headline contracts hold simultaneously:
///
///  * At any shard count and any thread count, ingesting a whole stream and
///    certifying once yields a partition, labeling, and certificate
///    bit-identical to the one-shot run on the concatenated workload, at
///    exactly the one-shot oracle cost (== one-shot SAMP for kSamp, <= it
///    for kHybr/kRisk), with zero duplicate oracle requests.
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
  /// epoch's report (also appended to reports()).
  const EpochReport& Ingest(data::Shard shard);

  /// Runs the configured certifier over the cumulative workload, reusing
  /// every carried answer, and returns the certificate (also retained, see
  /// last_certificate()). Fails on an empty workload or when the underlying
  /// optimizer fails.
  Result<StreamingCertificate> Certify();

  const data::Workload& cumulative() const { return cumulative_; }
  const SubsetPartition& partition() const { return partition_; }
  const QualityRequirement& requirement() const { return req_; }
  const StreamingOptions& options() const { return options_; }

  /// The resolver-owned oracle (counters; the current epoch's view).
  const Oracle& oracle() const { return oracle_; }

  /// The carried estimation context (cache statistics, GP warm state).
  const EstimationContext& context() const { return ctx_; }

  /// Current machine-side labeling of every cumulative pair: carried
  /// answers verbatim, everything else by the provisional model (GP subset
  /// mean >= 0.5) or, before any evidence exists, by the similarity
  /// midpoint. Refreshed by every Ingest() and Certify().
  const std::vector<int>& provisional_labels() const {
    return provisional_labels_;
  }

  /// Every epoch's report in ingest order. A deque on purpose: push_back
  /// never moves existing elements, so the references Ingest() hands out
  /// stay valid for the resolver's lifetime (a std::vector here silently
  /// dangled them on the next Ingest's reallocation).
  const std::deque<EpochReport>& reports() const { return reports_; }
  size_t epochs_ingested() const { return epochs_ingested_; }

  /// Seeds an out-of-band human answer (the async-queue fold-in hook):
  /// locates `pair` by identity — (left, right, similarity), robust to the
  /// index shifts interior merges cause — and preloads the answer into the
  /// oracle (free, idempotent; see Oracle::Preload). Returns false when the
  /// pair is not part of the cumulative workload yet, in which case the
  /// caller keeps the answer pending for a later epoch. Call
  /// RefreshServing() after a fold-in burst so the provisional labeling and
  /// estimates see the new evidence.
  bool PreloadEvidence(const data::InstancePair& pair, bool answer);

  /// Recomputes the provisional serving state (evidence strata, GP,
  /// labels, plug-in estimates) from the current evidence and returns a
  /// report carrying the fresh estimate fields. Unlike Ingest, nothing is
  /// appended to reports() — this is the post-fold refresh for callers of
  /// PreloadEvidence.
  EpochReport RefreshServing();

  /// Routes the oracle's fresh inspections through `provider` — the
  /// resolution service's bridge onto its asynchronous crowd queue (see
  /// Oracle::AnswerProvider for the exactness contract). nullptr restores
  /// inline answering.
  void SetOracleAnswerProvider(Oracle::AnswerProvider provider) {
    oracle_.SetAnswerProvider(std::move(provider));
  }

  /// Lifetime provisional-GP refit counters: how often the serving model
  /// was extended in place (GpRegression::ExtendedWith rank-k append) vs
  /// re-selected on the hyperparameter grid.
  size_t provisional_gp_extensions() const { return prov_gp_extensions_; }
  size_t provisional_gp_grid_fits() const { return prov_gp_grid_fits_; }

  /// The most recent certificate, or nullptr before the first Certify().
  const StreamingCertificate* last_certificate() const {
    return last_certificate_ ? &*last_certificate_ : nullptr;
  }

  /// Lifetime distinct pairs inspected across all epochs/certifications.
  size_t total_inspections() const {
    return oracle_.preloaded() + oracle_.cost();
  }

  /// Lifetime oracle requests and duplicate requests (across the answer
  /// re-keying an interior merge performs). The streaming discipline keeps
  /// duplicates at zero: every consumer filters already-answered pairs
  /// before requesting.
  size_t total_requests() const {
    return retired_requests_ + oracle_.total_requests();
  }
  size_t total_duplicate_requests() const {
    return retired_duplicates_ + oracle_.duplicate_requests();
  }

 private:
  /// Rebuilds evidence strata, the provisional GP (ExtendedWith fast path),
  /// the provisional labeling, and the plug-in quality estimates.
  void RefreshProvisional(EpochReport* report);

  /// Index of `pair` in the cumulative sorted order (binary search under
  /// data::PairLess); asserts presence.
  size_t IndexOf(const data::InstancePair& pair) const;

  StreamingOptions options_;
  QualityRequirement req_;
  data::Workload cumulative_;
  SubsetPartition partition_;
  Oracle oracle_;
  EstimationContext ctx_;

  size_t epochs_ingested_ = 0;
  size_t retired_requests_ = 0;    // request counters retired by re-keying
  size_t retired_duplicates_ = 0;
  std::deque<EpochReport> reports_;  // stable element refs; see reports()
  std::optional<StreamingCertificate> last_certificate_;

  /// Provisional (machine-only) serving state.
  struct ProvPin {
    size_t subset = 0;
    double x = 0.0;      // avg similarity at fit time
    double y = 0.0;      // observed match proportion at fit time
    double noise = 0.0;  // sampling variance (0 when fully enumerated)
    size_t population = 0;
    size_t sample_size = 0;
  };
  std::vector<stats::Stratum> evidence_strata_;
  std::vector<ProvPin> prov_pins_;  // discovery order (GP insertion order)
  std::optional<gp::GpRegression> prov_model_;
  std::vector<int> provisional_labels_;
  size_t prov_gp_extensions_ = 0;
  size_t prov_gp_grid_fits_ = 0;
};

}  // namespace humo::core
