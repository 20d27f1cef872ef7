#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gp_subset_model.h"
#include "core/oracle.h"
#include "core/partition.h"

namespace humo::core {

/// Posterior misclassification risk of the machine-labeled (not yet
/// human-inspected) pairs inside a DH subset range — the r-HUMO idea (Hou et
/// al.): instead of inspecting DH wholesale, rank individual pairs by the
/// probability that their machine label is wrong and spend the human budget
/// top-down until the quality requirement certifies.
///
/// Per subset k the posterior over the match proportion of the uninspected
/// pairs is the one SAMP's model uses (ConditionSubset): the GpSubsetModel's
/// prior on p_k (clamped GP mean; LOO-inflated GP variance plus the
/// subset's scatter) conditioned on this model's evidence, `inspected`
/// pairs of k human-labeled and `matches` of them positive. RISK reads the
/// prior, not the GpSubsetModel's conditioned estimate: its evidence is
/// seeded from the oracle's memory (InitRiskEvidence) and so already holds
/// SAMP's sampled pairs, which count once. With no evidence the posterior
/// is the prior; as inspections accumulate it moves to the observed rate.
///
/// Uninspected pairs of subset k are machine-labeled match iff the posterior
/// mean reaches 0.5; a pair's risk is the posterior probability that label
/// is wrong, reported conservatively through the posterior's upper tail.
/// All queries are deterministic functions of the evidence — no RNG.
class RiskModel {
 public:
  /// Models subsets [lo, hi] of `model`'s partition (inclusive; the DH
  /// range under risk-ordered inspection). `model` must outlive this object.
  RiskModel(const GpSubsetModel* model, size_t lo, size_t hi);

  size_t lo() const { return lo_; }
  size_t hi() const { return hi_; }

  /// Records that `inspected` distinct pairs of subset k are human-labeled,
  /// `matches` of them matches. Counts are absolute (not deltas) and must be
  /// non-decreasing; `inspected` may not exceed the subset size.
  void SetEvidence(size_t k, size_t inspected, size_t matches);

  /// Human-inspected matches of subset k (exact, human-corrected).
  size_t InspectedMatches(size_t k) const;

  /// Posterior mean of the match proportion among subset k's uninspected
  /// pairs (see class comment).
  double PosteriorMean(size_t k) const;

  /// Machine label subset k's uninspected pairs would receive: match iff
  /// the posterior mean reaches 0.5.
  bool MachineLabelsMatch(size_t k) const { return PosteriorMean(k) >= 0.5; }

  /// Conservative per-pair misclassification probability of subset k's
  /// machine label: the posterior upper tail (at `confidence`) of the error
  /// proportion. 0 when the subset has no uninspected pairs. This is the
  /// priority the risk-aware optimizer's queue orders inspections by —
  /// inspecting one pair of subset k removes this much expected error.
  double PairRisk(size_t k, double confidence) const;

  /// Aggregate posterior over the uninspected pairs of [lo, hi], split by
  /// machine label: the mean and variance of the realized match COUNT in
  /// each bucket (ConditionSubset's count moments, summed as independent
  /// across subsets), plus the pair totals. These feed the precision/recall
  /// certification bounds.
  struct UninspectedAggregate {
    double match_mean = 0.0, match_var = 0.0, match_pairs = 0.0;
    double unmatch_mean = 0.0, unmatch_var = 0.0, unmatch_pairs = 0.0;
  };
  UninspectedAggregate Aggregate() const;

  /// Human-inspected matches across [lo, hi].
  size_t TotalInspectedMatches() const;

  /// Uninspected pairs across [lo, hi].
  size_t TotalUninspected() const;

 private:
  SubsetPosterior PosteriorOf(size_t k) const;

  const GpSubsetModel* model_;
  size_t lo_ = 0, hi_ = 0;
  std::vector<size_t> size_;       // subset sizes, indexed k - lo
  std::vector<size_t> inspected_;  // evidence counts, indexed k - lo
  std::vector<size_t> matches_;
};

/// Certified lower bounds for a DH range under partial inspection.
struct RiskCertificate {
  double precision_lb = 0.0;
  double recall_lb = 0.0;

  bool Meets(double alpha, double beta) const {
    return precision_lb >= alpha && recall_lb >= beta;
  }
};

/// Precision/recall lower bounds when DH = the risk model's [lo, hi] is
/// partially inspected and the rest of the workload is machine-labeled
/// around it:
///   precision >= (lb(D+) + A + lb(match-labeled uninspected)) /
///                (|D+| + A + match-labeled uninspected pairs)
///   recall    >= tp_lb / (tp_lb + ub(D-) + ub(unmatch-labeled uninspected))
/// with A the human-inspected DH matches (exact, human-corrected), the
/// D+/D- terms from the GP range accumulators (`dplus` over [hi+1, m-1],
/// `dminus` over [0, lo-1], empty when the zone is), and the uninspected
/// terms from `risk`'s mean/variance aggregation — every bound taken at
/// `confidence` (the paper's per-requirement sqrt(theta) convention).
RiskCertificate CertifyRange(const RiskModel& risk,
                             const GpRangeAccumulator& dplus,
                             const GpRangeAccumulator& dminus,
                             double confidence);

/// Best case the range could certify: the bounds of CertifyRange if every
/// uninspected pair of [lo, hi] were human-inspected and resolved exactly
/// to its posterior mean. When even this potential misses a target, no
/// amount of inspection inside the range can certify it — the risk loop's
/// fast-fail.
RiskCertificate CertifyRangePotential(const RiskModel& risk,
                                      const GpRangeAccumulator& dplus,
                                      const GpRangeAccumulator& dminus,
                                      double confidence);

/// Seeds `risk`'s evidence from the oracle's answer memory (every pair a
/// previous phase — SAMP's sampling, HYBR's extension — already labeled is
/// free evidence) and returns, per subset of the risk range, the
/// not-yet-answered pair indices in the deterministic seeded-random order
/// risk inspection consumes them (drawn from Rng::Stream(seed, k), so the
/// order is identical at any thread count and regardless of which subsets
/// were touched before). Entry t of the result belongs to subset lo + t;
/// batches are taken from the BACK of each list.
std::vector<std::vector<size_t>> InitRiskEvidence(
    const SubsetPartition& partition, const Oracle& oracle, RiskModel* risk,
    uint64_t seed);

}  // namespace humo::core
