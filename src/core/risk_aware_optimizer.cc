#include "core/risk_aware_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace humo::core {
namespace {

/// Priority-queue entry: one subset's current per-pair risk. Entries go
/// stale when the subset's evidence changes; `generation` marks the evidence
/// state the risk was computed against, and stale pops are discarded (lazy
/// deletion — cheaper than a decrease-key heap at these sizes).
struct QueueEntry {
  double risk = 0.0;
  size_t subset = 0;
  size_t generation = 0;
};

/// Max-heap by risk; ties broken toward the LOWER subset index so the pop
/// order — and with it the whole inspection trace — is deterministic.
struct QueueLess {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.risk != b.risk) return a.risk < b.risk;
    return a.subset > b.subset;
  }
};

}  // namespace

Result<RiskAwareOutcome> RiskAwareOptimizer::Resolve(
    const SubsetPartition& partition, const QualityRequirement& req,
    Oracle* oracle) const {
  if (oracle == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  EstimationContext ctx(&partition, oracle);
  return Resolve(&ctx, req);
}

Result<RiskAwareOutcome> RiskAwareOptimizer::Resolve(
    EstimationContext* ctx, const QualityRequirement& req) const {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  if (ctx->oracle() == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  if (ctx->partition().num_subsets() == 0)
    return Status::InvalidArgument("empty workload");
  // S0: reuse a stored partial-sampling outcome certifying the same
  // requirement, or run SAMP here (publishing its outcome as a side
  // effect) — the same reuse discipline HYBR applies.
  HUMO_ASSIGN_OR_RETURN(std::shared_ptr<const PartialSamplingOutcome> s0,
                        EnsureSamplingOutcome(ctx, req, options_.sampling));
  HUMO_ASSIGN_OR_RETURN(RiskAwareOutcome out,
                        ResolveWithin(ctx, req, s0->solution, s0->model.get()));
  if (!out.certified) {
    // Never hand back a partially machine-labeled DH without a
    // certificate: fall back to full DH inspection, which is exactly the
    // SAMP labeling (S0 certified it) at exactly SAMP's cost.
    out.resolution = ApplySolution(ctx->partition(), out.solution,
                                   ctx->oracle());
    out.inspection.pairs_machine_labeled = 0;
  }
  return out;
}

Result<RiskAwareOutcome> RiskAwareOptimizer::ResolveWithin(
    EstimationContext* ctx, const QualityRequirement& req,
    const HumoSolution& dh, const GpSubsetModel* model) const {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  if (ctx->oracle() == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  if (model == nullptr)
    return Status::InvalidArgument("subset model must not be null");
  const SubsetPartition& partition = ctx->partition();
  Oracle* oracle = ctx->oracle();
  const size_t m = partition.num_subsets();
  if (m == 0) return Status::InvalidArgument("empty workload");
  if (model->num_subsets() != m)
    return Status::InvalidArgument("model does not describe this partition");
  if (options_.batch_pairs == 0)
    return Status::InvalidArgument("batch_pairs must be positive");
  if (dh.empty) {
    // Nothing to inspect: pure machine labeling around the split point.
    RiskAwareOutcome out;
    out.solution = dh;
    out.resolution = ApplySolution(partition, dh, oracle);
    return out;
  }
  if (dh.h_lo > dh.h_hi || dh.h_hi >= m)
    return Status::InvalidArgument("invalid DH range");
  const size_t i = dh.h_lo;
  const size_t j = dh.h_hi;

  const double conf = std::sqrt(req.theta);
  const double alpha = std::min(1.0, req.alpha + kQualityMargin);
  const double beta = std::min(1.0, req.beta + kQualityMargin);

  // Incremental D+/D- bounds at the same confidence SAMP certified with.
  GpRangeAccumulator dplus(model), dminus(model);
  if (j + 1 < m) dplus.SetRange(j + 1, m - 1);
  if (i > 0) dminus.SetRange(0, i - 1);

  RiskModel risk(model, i, j);
  std::vector<std::vector<size_t>> pending =
      InitRiskEvidence(partition, *oracle, &risk, options_.seed);

  // Priority queue of subsets by conservative per-pair risk (lazy
  // deletion, see QueueEntry). All pairs of one subset share a risk score —
  // subset statistics are the finest granularity the models resolve — so
  // the per-pair queue the paper describes degenerates to batched pops of
  // the riskiest subset, which is also what keeps human interaction batched
  // (one crowd task per pop, not one round-trip per pair).
  std::vector<size_t> generation(j - i + 1, 0);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, QueueLess> queue;
  for (size_t k = i; k <= j; ++k) {
    if (!pending[k - i].empty())
      queue.push({risk.PairRisk(k, conf), k, 0});
  }

  RiskInspectionStats stats;
  std::vector<char> touched(j - i + 1, 0);
  RiskCertificate bounds = CertifyRange(risk, i, j, dplus, dminus, conf);
  while (!bounds.Meets(alpha, beta)) {
    // Fast-fail: when even the POTENTIAL certificate (every remaining pair
    // resolving to its posterior mean — an upper envelope of the actual
    // bounds) misses a target, further inspection inside this range is
    // near-certainly wasted; stop and report uncertified so the caller
    // (HYBR's re-growth loop) can widen the range instead.
    if (!CertifyRangePotential(risk, i, j, dplus, dminus, conf)
             .Meets(alpha, beta))
      break;
    // Pop the riskiest subset, discarding entries whose evidence changed
    // since they were pushed.
    size_t k = m;
    while (!queue.empty()) {
      const QueueEntry top = queue.top();
      queue.pop();
      if (top.generation != generation[top.subset - i]) continue;
      if (pending[top.subset - i].empty()) continue;
      k = top.subset;
      break;
    }
    if (k == m) break;  // DH exhausted: labeling now equals full inspection
    std::vector<size_t>& todo = pending[k - i];
    const size_t take = std::min(options_.batch_pairs, todo.size());
    const std::vector<size_t> batch(todo.end() - static_cast<long>(take),
                                    todo.end());
    todo.resize(todo.size() - take);
    const size_t batch_matches = ctx->InspectSubsetPairs(k, batch);
    const size_t inspected = partition[k].size() - todo.size();
    risk.SetEvidence(k, inspected, risk.InspectedMatches(k) + batch_matches);
    ++generation[k - i];
    if (!todo.empty())
      queue.push({risk.PairRisk(k, conf), k, generation[k - i]});
    stats.pairs_inspected += take;
    ++stats.batches;
    if (!touched[k - i]) {
      touched[k - i] = 1;
      ++stats.subsets_touched;
    }
    bounds = CertifyRange(risk, i, j, dplus, dminus, conf);
  }
  stats.pairs_machine_labeled = risk.TotalUninspected();

  RiskAwareOutcome out;
  out.solution = dh;
  out.inspection = stats;
  out.precision_lb = bounds.precision_lb;
  out.recall_lb = bounds.recall_lb;
  out.certified = bounds.Meets(alpha, beta);

  // Final labeling WITHOUT further oracle traffic: D- unmatch, D+ match;
  // inside DH every answered pair keeps its human label (free lookups) and
  // the uninspected remainder carries its subset's machine label.
  const data::Workload& workload = partition.workload();
  out.resolution.solution = dh;
  out.resolution.labels.assign(workload.size(), 0);
  const size_t last_human = partition[j].end;  // exclusive
  for (size_t idx = last_human; idx < workload.size(); ++idx)
    out.resolution.labels[idx] = 1;
  for (size_t k = i; k <= j; ++k) {
    const Subset& s = partition[k];
    const int machine = risk.MachineLabelsMatch(k) ? 1 : 0;
    for (size_t idx = s.begin; idx < s.end; ++idx) {
      out.resolution.labels[idx] =
          oracle->WasAsked(idx) ? (oracle->CachedAnswer(idx) ? 1 : 0)
                                : machine;
    }
  }
  out.resolution.human_cost = oracle->cost();
  out.resolution.human_cost_fraction = oracle->CostFraction();
  return out;
}

}  // namespace humo::core
