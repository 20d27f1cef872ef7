#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/gp_subset_model.h"
#include "core/oracle.h"
#include "core/partition.h"
#include "core/solution.h"
#include "stats/stratified.h"

namespace humo::core {

/// Counters describing how much estimation work the engine reused instead of
/// recomputing (and, crucially, instead of re-asking the human).
struct CacheStats {
  /// LabelSubset calls answered from the cache (no oracle traffic).
  size_t full_label_hits = 0;
  /// LabelSubset calls that had to inspect at least one fresh pair.
  size_t full_label_misses = 0;
  /// SampleSubset calls answered from a cached stratum or full enumeration.
  size_t stratum_hits = 0;
  /// SampleSubset calls that drew and inspected a fresh sample.
  size_t stratum_misses = 0;
  /// Fresh pair inspections the engine routed to the oracle.
  size_t oracle_pairs_inspected = 0;
  /// Pair inspections avoided: requested through the engine but served from
  /// the subset cache or the oracle's answer memory without a new request.
  size_t oracle_pairs_saved = 0;
  /// GP re-estimation rounds served by warm-starting the previous winner —
  /// a rank-k Cholesky append (or outright reuse) instead of re-running the
  /// full hyperparameter grid.
  size_t gp_warm_starts = 0;
  /// GP fits that evaluated the full hyperparameter grid (first fit of a
  /// run, warm-start rejections, the final scatter refit, and every round
  /// when PartialSamplingOptions::gp_warm_lml_slack is -infinity).
  size_t gp_grid_fits = 0;
  /// Training observations appended to an existing factor across all
  /// warm-started rounds.
  size_t gp_rows_appended = 0;
};

/// Round-over-round GP re-estimation state threaded through the context.
///
/// SAMP's refinement loop alternates "sample one more subset" with "refit
/// the GP"; re-running the full hyperparameter grid from scratch every
/// round is O(rounds x grid x n^3). The state below lets the next FitGp
/// call recognize that the training set only grew — every previously used
/// (subset, observation, noise) is unchanged — and extend the previous
/// winner's Cholesky factor by the appended rows (O(n^2 k)) instead,
/// re-running the grid only when the warm model's per-datum log marginal
/// likelihood degrades past the optimizer's slack.
///
/// Training points are kept in INSERTION order: grid fits store the sorted
/// subset order they fit on, warm starts append at the end. The GP is
/// permutation-invariant up to factorization roundoff, so predictions agree
/// with the sorted-order fit within ~1e-12.
///
/// A warm round keeps hyperparameters a grid re-selection might change, so
/// warm and grid-every-round runs (gp_warm_lml_slack = -infinity) can take
/// different decisions. tests/integration/gp_incremental_test.cc pins equal
/// SAMP and HYBR solutions and costs on 30k-40k-pair logistic workloads
/// (three SAMP seeds, one HYBR seed). The two modes also gave the same
/// outputs on bench/e2e pairs-1m and paper-ab (seed 7, reps 0 and 1), but
/// not everywhere: on full DBLP-Scholar realizations (paper-ds, seed 7,
/// reps 0 and 1) grid-every-round moved SAMP's, HYBR's and RISK's human
/// cost both up and down.
struct GpFitState {
  /// Subset indices of the current model's training set, insertion order.
  std::vector<size_t> order;
  /// Observations and per-point noise the model was trained on, parallel to
  /// `order`; compared against the caller's strata to prove that a round
  /// only APPENDED data (anything else forces a grid re-run).
  std::vector<double> ys, noise;
  /// Previous winner; null before the first grid fit.
  std::shared_ptr<const gp::GpRegression> model;
  /// Per-datum log marginal likelihood when `model` was last accepted.
  double lml_per_datum = 0.0;
};

/// Everything the hybrid approach needs from a partial-sampling run: the
/// solution, the fitted subset-level GP model, the raw per-subset sampling
/// data, and the requirement the run certified against.
struct PartialSamplingOutcome {
  HumoSolution solution;
  std::shared_ptr<GpSubsetModel> model;
  /// Workload scatter variance behind the model's per-subset scatter
  /// (SubsetScatterVariance), so the same prior can be evaluated at subsets
  /// the model was not built over.
  double scatter = 0.0;
  /// Per-subset sampling strata; unsampled subsets have sample_size == 0.
  std::vector<stats::Stratum> strata;
  /// Which subsets were sampled during Algorithm 1.
  std::vector<bool> sampled;
  /// Requirement the outcome was produced for; a consumer reusing the
  /// outcome must be certifying the same alpha/beta/theta.
  QualityRequirement req;
};

/// Shared estimation state for one (partition, oracle) pair.
///
/// All the optimizers (BASE §V, SAMP §VI, HYBR §VII, and the r-HUMO
/// style RISK) consume subset statistics that are expensive only because
/// producing them asks the human:
/// full enumerations, random samples, GP fits over the samples, and the
/// confidence bounds derived from them. Running the optimizers against one
/// EstimationContext memoizes that work — HYBR's re-extension phase after a
/// SAMP run issues ZERO duplicate oracle inspections, because every subset
/// SAMP enumerated is served from its stratum and every pair SAMP sampled
/// is filtered out of the batches the engine sends.
///
/// Human interaction goes through Oracle::InspectBatch so a subset is one
/// batched unit of human work. Heavy machine-side math (GP Gram
/// construction, Cholesky, simulation) runs on the process-global
/// ThreadPool (size it with HUMO_NUM_THREADS or
/// ThreadPool::SetGlobalThreads) with deterministic per-task RNG streams.
class EstimationContext {
 public:
  /// `partition` and `oracle` must outlive the context.
  EstimationContext(const SubsetPartition* partition, Oracle* oracle);

  const SubsetPartition& partition() const { return *partition_; }
  Oracle* oracle() const { return oracle_; }

  /// Exact match count of subset k with every pair human-labeled.
  /// Memoized: a fully enumerated stratum is returned without any oracle
  /// traffic; a miss is InspectSubsetPairs over the whole subset, so only
  /// the pairs the oracle has not already answered are inspected.
  size_t LabelSubset(size_t k);

  /// Sampling stratum of subset k with up to `take` pairs labeled.
  /// Memoized: a stratum with at least `take` answered pairs (a full
  /// enumeration included) is returned without consuming `rng` or touching
  /// the oracle; otherwise a fresh sample is drawn from `rng` exactly like
  /// the historical serial path, inspected as one batch (minus
  /// already-answered pairs) and kept in place of the smaller stratum.
  const stats::Stratum& SampleSubset(size_t k, size_t take, Rng* rng);

  /// Human-labels specific pairs of subset k (absolute workload indices
  /// inside the subset's range) as one batch; returns the matches among
  /// them. Pairs the oracle already answered are served from its memory
  /// (free), only the rest are inspected. Afterwards the subset's stratum
  /// is refreshed to cover EVERY answered pair of the subset, so later
  /// SampleSubset/LabelSubset calls — and chained optimizer runs — reuse
  /// the answers (a fully covered subset reads as fully labeled). This is
  /// the risk-aware optimizer's inspection primitive: it pays per pair, not
  /// per subset.
  size_t InspectSubsetPairs(size_t k, const std::vector<size_t>& pair_indices);

  /// Observed match proportion of the `window` most recently labeled
  /// subsets on the upper side of DH = [lo, hi] (walking down from hi).
  /// `max_pairs` optionally caps the window by pair count (BASE's Eq. 7
  /// window uses window * subset_size; 0 = no cap). Every visited subset
  /// must be fully labeled.
  double UpperWindowProportion(size_t lo, size_t hi, size_t window,
                               size_t max_pairs = 0) const;

  /// Mirror image on the lower side of DH (walking up from lo).
  double LowerWindowProportion(size_t lo, size_t hi, size_t window,
                               size_t max_pairs = 0) const;

  /// Publishes a partial-sampling outcome for later consumers (HYBR's
  /// re-extension, benches chaining optimizers). The engine stores one
  /// outcome; a later store replaces it.
  void StoreSamplingOutcome(std::shared_ptr<const PartialSamplingOutcome> o);

  /// The stored outcome, or null when no SAMP run has completed here.
  std::shared_ptr<const PartialSamplingOutcome> sampling_outcome() const {
    return sampling_outcome_;
  }

  /// Mutable round-over-round GP refit state consumed by the partial
  /// sampling optimizer's FitGp (see GpFitState). Kept on the context so
  /// chained runs over the same strata can warm-start across runs too.
  GpFitState* gp_fit_state() { return &gp_fit_state_; }

  /// Counter hooks for the GP refit path.
  void RecordGpWarmStart(size_t rows_appended) {
    ++stats_.gp_warm_starts;
    stats_.gp_rows_appended += rows_appended;
  }
  void RecordGpGridFit() { ++stats_.gp_grid_fits; }

  /// Carries the context across a partition change (a streaming epoch
  /// merge): the strata are resized to the partition's new subset count,
  /// keeping the evidence of the first `preserved_prefix_subsets`
  /// subsets — the caller's proof that those subsets' [begin, end) contents
  /// are untouched (pure tail append; pass 0 after an interior merge, which
  /// clears everything). The stored sampling outcome is always dropped (its
  /// solution and strata index the old partition), and the GP warm-start
  /// state survives only when every subset it trained on lies inside the
  /// preserved prefix (its inputs are those subsets' average similarities).
  /// Counters in stats() are cumulative and unaffected.
  void OnPartitionExtended(size_t preserved_prefix_subsets);

  const CacheStats& stats() const { return stats_; }

 private:
  /// Splits `pairs` (absolute indices inside `s`) into answered and fresh,
  /// inspects the fresh ones as one batch and counts both; returns the
  /// matches among all of them.
  size_t InspectPairs(const Subset& s, const std::vector<size_t>& pairs);

  /// Match proportion of up to `window` fully labeled subsets, walking from
  /// subset `from` toward `to` (inclusive) until `max_pairs` (0 = no cap).
  double WindowProportion(size_t from, size_t to, size_t window,
                          size_t max_pairs) const;

  const SubsetPartition* partition_;
  Oracle* oracle_;
  /// One stratum per subset of partition(): population is the subset's
  /// size, the sample the answered pairs this context has counted for it.
  /// Subset k is known iff sample_size > 0 and fully labeled iff
  /// fully_enumerated().
  std::vector<stats::Stratum> strata_;
  CacheStats stats_;
  GpFitState gp_fit_state_;
  std::shared_ptr<const PartialSamplingOutcome> sampling_outcome_;
};

}  // namespace humo::core
