#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gp_subset_model.h"
#include "core/oracle.h"
#include "core/partition.h"
#include "stats/proportion.h"

namespace humo::core {

/// Posterior misclassification risk of the machine-labeled (not yet
/// human-inspected) pairs inside a DH subset range — the r-HUMO idea (Hou et
/// al.): instead of inspecting DH wholesale, rank individual pairs by the
/// probability that their machine label is wrong and spend the human budget
/// top-down until the quality requirement certifies.
///
/// Per subset k the model maintains two posteriors over the match proportion
/// of the uninspected pairs and uses whichever is TIGHTER (smaller
/// variance):
///
///  - the GP posterior from the partial-sampling fit (GpSubsetModel's
///    posterior mean and LOO-inflated variance at v_k plus the subset's
///    independent scatter) — all the model knows before any direct evidence;
///  - a conservative Beta posterior over the direct evidence (`inspected`
///    pairs of k human-labeled, `matches` of them positive), via the
///    stats/proportion Beta tail bounds. With zero evidence its prior
///    variance (1/12 for the uniform prior) loses to the GP; as inspections
///    accumulate it sharpens past the GP and takes over.
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

  /// Pairs of subset k not yet human-inspected (machine-labeled pairs).
  size_t Uninspected(size_t k) const;

  /// Human-inspected matches of subset k (exact, human-corrected).
  size_t InspectedMatches(size_t k) const;

  /// Posterior mean of the match proportion among subset k's uninspected
  /// pairs (tighter of GP and Beta evidence; see class comment).
  double PosteriorMean(size_t k) const;

  /// Posterior variance of that proportion (the proportion itself, not the
  /// realized count — callers add the binomial realization term).
  double PosteriorVariance(size_t k) const;

  /// Machine label subset k's uninspected pairs would receive: match iff
  /// the posterior mean reaches 0.5.
  bool MachineLabelsMatch(size_t k) const { return PosteriorMean(k) >= 0.5; }

  /// Conservative per-pair misclassification probability of subset k's
  /// machine label: the posterior upper tail (at `confidence`) of the error
  /// proportion. 0 when the subset has no uninspected pairs. This is the
  /// priority the risk-aware optimizer's queue orders inspections by —
  /// inspecting one pair of subset k removes this much expected error.
  double PairRisk(size_t k, double confidence) const;

  /// Aggregate posterior over the uninspected pairs of subsets [a, b]
  /// (within [lo, hi]), split by machine label: the mean and variance of
  /// the realized match COUNT in each bucket (per-subset proportion
  /// variance scaled by u_k^2 plus the u_k p (1-p) binomial realization
  /// term, summed as independent across subsets), plus the pair totals.
  /// These feed the precision/recall certification bounds.
  struct UninspectedAggregate {
    double match_mean = 0.0, match_var = 0.0, match_pairs = 0.0;
    double unmatch_mean = 0.0, unmatch_var = 0.0, unmatch_pairs = 0.0;
  };
  UninspectedAggregate Aggregate(size_t a, size_t b) const;
  UninspectedAggregate Aggregate() const { return Aggregate(lo_, hi_); }

  /// Human-inspected matches across subsets [a, b] (full range by default).
  size_t TotalInspectedMatches(size_t a, size_t b) const;
  size_t TotalInspectedMatches() const {
    return TotalInspectedMatches(lo_, hi_);
  }

  /// Uninspected pairs across subsets [a, b] (full range by default).
  size_t TotalUninspected(size_t a, size_t b) const;
  size_t TotalUninspected() const { return TotalUninspected(lo_, hi_); }

 private:
  struct Posterior {
    double mean = 0.0;
    double variance = 0.0;
    bool from_beta = false;
  };
  Posterior PosteriorOf(size_t k) const;

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

/// Precision/recall lower bounds when DH = subsets [a, b] is partially
/// inspected and the rest of the workload is machine-labeled around it:
///   precision >= (lb(D+) + A + lb(match-labeled uninspected)) /
///                (|D+| + A + match-labeled uninspected pairs)
///   recall    >= tp_lb / (tp_lb + ub(D-) + ub(unmatch-labeled uninspected))
/// with A the human-inspected DH matches (exact, human-corrected), the
/// D+/D- terms from the GP range accumulators (`dplus` over [b+1, m-1],
/// `dminus` over [0, a-1], empty when the zone is), and the uninspected
/// terms from `risk`'s mean/variance aggregation — every bound taken at
/// `confidence` (the paper's per-requirement sqrt(theta) convention).
RiskCertificate CertifyRange(const RiskModel& risk, size_t a, size_t b,
                             const GpRangeAccumulator& dplus,
                             const GpRangeAccumulator& dminus,
                             double confidence);

/// Best case the range could certify: the bounds of CertifyRange if every
/// uninspected pair of [a, b] were human-inspected and resolved exactly to
/// its posterior mean. When even this potential misses a target, no amount
/// of inspection inside [a, b] can certify it and the range must grow —
/// the extension rule of HybridOptimizer::OptimizeRiskAware.
RiskCertificate CertifyRangePotential(const RiskModel& risk, size_t a,
                                      size_t b,
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

/// Evidence-only variant of InitRiskEvidence: seeds `risk` from the
/// oracle's answer memory without building (or shuffling) the uninspected
/// pair lists — all a range-selection phase needs before any inspection.
void SeedRiskEvidence(const SubsetPartition& partition, const Oracle& oracle,
                      RiskModel* risk);

}  // namespace humo::core
