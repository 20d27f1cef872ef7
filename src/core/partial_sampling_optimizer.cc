#include "core/partial_sampling_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "common/random.h"

namespace humo::core {
namespace {

/// Error threshold epsilon of Algorithm 1: a midpoint subset whose observed
/// proportion deviates from the GP prediction by at least this much
/// triggers recursive refinement of its bracket.
constexpr double kErrorThreshold = 0.05;

/// Leave-one-out calibration of the fitted GP: for each sampled subset,
/// predict its observed proportion from the other samples and compare the
/// squared residual to the LOO predictive variance. The mean standardized
/// squared residual is 1 for a perfectly calibrated model; larger values
/// mean the GP misses its own pins by more than its posterior admits —
/// typically in convex onset regions of sparse match tails — and every
/// range bound should be widened accordingly. Uses the closed form
///   r_k = alpha_k / (K^-1)_kk,   var_k = 1 / (K^-1)_kk
/// with K the noisy training Gram matrix.
double LooVarianceInflation(const gp::GpRegression& gp,
                            const SubsetPartition& partition,
                            const std::vector<stats::Stratum>& strata,
                            const std::vector<size_t>& train,
                            double scatter_variance) {
  const size_t k = train.size();
  if (k < 4) return 1.0;
  std::vector<double> xs(k), ys(k);
  for (size_t t = 0; t < k; ++t) {
    xs[t] = partition[train[t]].avg_similarity;
    ys[t] = strata[train[t]].proportion();
  }
  double y_mean = 0.0;
  for (double y : ys) y_mean += y;
  y_mean /= static_cast<double>(k);

  linalg::Matrix gram = gp.kernel().GramSymmetric(xs);
  gram.AddToDiagonal(kGpNoiseFloor);
  for (size_t t = 0; t < k; ++t) {
    gram(t, t) +=
        strata[train[t]].proportion_variance() + scatter_variance;
  }
  auto chol = linalg::Cholesky::Factor(gram);
  if (!chol.ok()) return 1.0;
  linalg::Vector centered(k);
  for (size_t t = 0; t < k; ++t) centered[t] = ys[t] - y_mean;
  const linalg::Vector alpha = chol->Solve(centered);
  // Only diag(K^-1) is read; InverseDiagonal gives Solve(I)'s diagonal bits.
  const linalg::Vector inv_diag = chol->InverseDiagonal();

  std::vector<double> standardized;
  standardized.reserve(k);
  for (size_t t = 0; t < k; ++t) {
    const double precision = inv_diag[t];
    if (precision <= 0.0) continue;
    const double residual = alpha[t] / precision;  // y_t - loo_mean_t
    const double var = 1.0 / precision;            // loo predictive variance
    standardized.push_back(residual * residual / var);
  }
  if (standardized.size() < 4) return 1.0;
  // Median of chi^2_1 is ~0.455; the ratio is ~1 for a calibrated model.
  // The median resists a handful of honestly-noisy transition pins while
  // still catching systematic misfit that spans many pins (the sparse-tail
  // onset pathology).
  std::nth_element(standardized.begin(),
                   standardized.begin() + standardized.size() / 2,
                   standardized.end());
  const double med = standardized[standardized.size() / 2];
  return std::clamp(med / 0.455, 1.0, 25.0);
}

/// Robust estimate of the independent per-subset scatter variance (the
/// sigma^2 of the paper's synthetic generator) from the sampled subsets'
/// observed proportions: second differences of consecutive observations
/// cancel the smooth latent trend, and the median over triples resists the
/// transition band's genuine curvature. For a pure second difference of
/// i.i.d. N(0, s^2) scatter, Var(d) = 6 s^2 and median(d^2) ~ 0.455 * 6 s^2.
double EstimateScatterVariance(const std::vector<stats::Stratum>& strata,
                               const std::vector<size_t>& train) {
  if (train.size() < 4) return 0.0;
  std::vector<double> d2;
  for (size_t t = 1; t + 1 < train.size(); ++t) {
    const double y0 = strata[train[t - 1]].proportion();
    const double y1 = strata[train[t]].proportion();
    const double y2 = strata[train[t + 1]].proportion();
    const double d = y2 - 2.0 * y1 + y0;
    d2.push_back(d * d);
  }
  std::nth_element(d2.begin(), d2.begin() + d2.size() / 2, d2.end());
  const double med = d2[d2.size() / 2];
  const double var = med / (6.0 * 0.455);
  return std::clamp(var, 0.0, 0.25);
}

/// Attempts to serve a refit round from the context's round-over-round
/// state: if the requested training set is the previous one plus appended
/// observations (nothing removed, nothing re-observed), the previous
/// winner's factor is extended via a rank-k Cholesky append and kept as
/// long as its per-datum log marginal likelihood has not degraded past
/// `options.gp_warm_lml_slack`. Returns nullopt when the round must run
/// the full grid — always, when the slack is -infinity. A returned model is
/// the previous one, or it with rows appended: its training points and
/// factor rows extend the previous model's.
std::optional<gp::GpRegression> TryWarmStart(
    EstimationContext* ctx, const SubsetPartition& partition,
    const std::vector<stats::Stratum>& strata,
    const std::vector<size_t>& sampled_indices,
    const PartialSamplingOptions& options) {
  GpFitState* state = ctx->gp_fit_state();
  if (state->model == nullptr) return std::nullopt;
  if (state->order.size() > sampled_indices.size()) return std::nullopt;
  // The previous training set must be exactly reusable: every subset it
  // used still sampled, with bitwise-unchanged observation and noise
  // (cached strata never change once taken, so a mismatch means the run
  // changed its noise model — e.g. the scatter refit — or a new context).
  std::vector<char> in_prev(partition.num_subsets(), 0);
  for (size_t t = 0; t < state->order.size(); ++t) {
    const size_t k = state->order[t];
    if (!std::binary_search(sampled_indices.begin(), sampled_indices.end(), k))
      return std::nullopt;
    if (state->ys[t] != strata[k].proportion() ||
        state->noise[t] != strata[k].proportion_variance())
      return std::nullopt;
    in_prev[k] = 1;
  }
  std::vector<size_t> fresh;  // ascending — deterministic append order
  for (size_t k : sampled_indices)
    if (!in_prev[k]) fresh.push_back(k);
  // True when a candidate's per-datum log marginal likelihood has dropped
  // more than the slack below the last GRID selection's. The baseline is
  // deliberately not updated on warm rounds: comparing against the previous
  // warm round instead would let per-round degradations just under the
  // slack compound without bound before any re-selection happened. A
  // -infinity slack makes every candidate stale; !(>=) makes a NaN one
  // stale too.
  auto stale = [&](const gp::GpRegression& candidate) {
    const double per_datum = candidate.LogMarginalLikelihood() /
                             static_cast<double>(sampled_indices.size());
    return !(per_datum >= state->lml_per_datum - options.gp_warm_lml_slack);
  };
  if (fresh.empty()) {
    // Identical training set: the previous winner IS this round's fit.
    if (stale(*state->model)) return std::nullopt;
    ctx->RecordGpWarmStart(0);
    return *state->model;
  }
  std::vector<double> x_new, y_new, noise_new;
  for (size_t k : fresh) {
    x_new.push_back(partition[k].avg_similarity);
    y_new.push_back(strata[k].proportion());
    noise_new.push_back(strata[k].proportion_variance());
  }
  Result<gp::GpRegression> warm =
      state->model->ExtendedWith(x_new, y_new, noise_new);
  if (!warm.ok()) return std::nullopt;  // non-PD append: refactor via grid
  if (stale(*warm)) return std::nullopt;  // re-select on the grid
  for (size_t t = 0; t < fresh.size(); ++t) {
    state->order.push_back(fresh[t]);
    state->ys.push_back(y_new[t]);
    state->noise.push_back(noise_new[t]);
  }
  state->model = std::make_shared<const gp::GpRegression>(*warm);
  ctx->RecordGpWarmStart(fresh.size());
  return std::move(*warm);
}

/// Fits the GP on the sampled subsets, selecting hyperparameters by log
/// marginal likelihood. Observation noise is the per-subset sampling
/// variance plus a homoscedastic floor.
///
/// Candidate length scales are restricted to at least 1.5x the largest gap
/// between adjacent sampled similarities: a shorter scale would interpolate
/// the pins perfectly yet leave every subset inside a gap at full prior
/// variance, which collapses the Eq. 13/14 lower bounds to zero and forces
/// DH toward the whole workload.
///
/// Refinement rounds that only APPEND observations are served incrementally
/// through the context's GpFitState (see TryWarmStart); the scatter refit
/// always re-runs the grid (its noise model differs on every diagonal
/// entry, so no factor is reusable). A gp_warm_lml_slack of -infinity
/// re-selects on the grid every round: the reference path the incremental
/// tests compare against. `warm`, when non-null, is set to whether the
/// round was served warm, i.e. whether the result extends the context's
/// previous model (see TryWarmStart).
Result<gp::GpRegression> FitGp(
    EstimationContext* ctx, const SubsetPartition& partition,
    const std::vector<stats::Stratum>& strata,
    const std::vector<size_t>& sampled_indices,
    const PartialSamplingOptions& options, double scatter_variance = 0.0,
    bool* warm = nullptr) {
  const bool incremental = scatter_variance == 0.0;
  if (warm != nullptr) *warm = false;
  if (incremental) {
    std::optional<gp::GpRegression> extended =
        TryWarmStart(ctx, partition, strata, sampled_indices, options);
    if (extended.has_value()) {
      if (warm != nullptr) *warm = true;
      return std::move(*extended);
    }
  }
  std::vector<double> xs, ys, noise;
  xs.reserve(sampled_indices.size());
  for (size_t k : sampled_indices) {
    xs.push_back(partition[k].avg_similarity);
    ys.push_back(strata[k].proportion());
    // Sampling variance of the observed proportion (zero for a fully
    // enumerated subset — the pin is its exact count) plus the estimated
    // inter-subset scatter. Treating pins this way reproduces the paper's
    // aggregate-trusting bound behavior; the realization uncertainty of
    // UNSAMPLED subsets is carried separately as independent per-subset
    // scatter in the GpSubsetModel (see below), not as pin noise — pin
    // noise would correlate through the latent function and multiply by
    // the full population, making sparse-tail workloads like AB
    // uncertifiable at any reasonable cost.
    noise.push_back(strata[k].proportion_variance() + scatter_variance);
  }
  const std::vector<gp::GpCandidate> grid = gp::GapGuardedGrid(xs);
  gp::GpOptions gp_options;
  gp_options.noise_variance = kGpNoiseFloor;
  ctx->RecordGpGridFit();
  Result<gp::GpRegression> fit = gp::SelectGpByMarginalLikelihood(
      xs, ys, grid, gp::KernelFamily::kRbf, gp_options, noise);
  if (incremental && fit.ok()) {
    // This grid winner becomes the warm-start baseline for later rounds.
    GpFitState* state = ctx->gp_fit_state();
    state->order = sampled_indices;
    state->ys = std::move(ys);
    state->noise = std::move(noise);
    state->model = std::make_shared<const gp::GpRegression>(*fit);
    state->lml_per_datum = fit->LogMarginalLikelihood() /
                           static_cast<double>(sampled_indices.size());
  }
  return fit;
}

}  // namespace

Result<std::shared_ptr<const PartialSamplingOutcome>> EnsureSamplingOutcome(
    EstimationContext* ctx, const QualityRequirement& req,
    const PartialSamplingOptions& options) {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  std::shared_ptr<const PartialSamplingOutcome> s0 = ctx->sampling_outcome();
  if (s0 != nullptr && s0->req.alpha == req.alpha &&
      s0->req.beta == req.beta && s0->req.theta == req.theta)
    return s0;
  PartialSamplingOptimizer samp(options);
  HUMO_ASSIGN_OR_RETURN(PartialSamplingOutcome fresh,
                        samp.OptimizeDetailed(ctx, req));
  (void)fresh;  // published into the context by OptimizeDetailed
  s0 = ctx->sampling_outcome();
  assert(s0 != nullptr);
  return s0;
}

Result<HumoSolution> PartialSamplingOptimizer::Optimize(
    const SubsetPartition& partition, const QualityRequirement& req,
    Oracle* oracle) const {
  HUMO_ASSIGN_OR_RETURN(PartialSamplingOutcome outcome,
                        OptimizeDetailed(partition, req, oracle));
  return outcome.solution;
}

Result<HumoSolution> PartialSamplingOptimizer::Optimize(
    EstimationContext* ctx, const QualityRequirement& req) const {
  HUMO_ASSIGN_OR_RETURN(PartialSamplingOutcome outcome,
                        OptimizeDetailed(ctx, req));
  return outcome.solution;
}

Result<PartialSamplingOutcome> PartialSamplingOptimizer::OptimizeDetailed(
    const SubsetPartition& partition, const QualityRequirement& req,
    Oracle* oracle) const {
  if (oracle == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  EstimationContext ctx(&partition, oracle);
  return OptimizeDetailed(&ctx, req);
}

Result<PartialSamplingOutcome> PartialSamplingOptimizer::OptimizeDetailed(
    EstimationContext* ctx, const QualityRequirement& req) const {
  if (ctx == nullptr)
    return Status::InvalidArgument("estimation context must not be null");
  if (ctx->oracle() == nullptr)
    return Status::InvalidArgument("oracle must not be null");
  const SubsetPartition& partition = ctx->partition();
  const size_t m = partition.num_subsets();
  if (m == 0) return Status::InvalidArgument("empty workload");
  HUMO_RETURN_NOT_OK(ValidateRequirement(req));
  if (options_.samples_per_subset == 0)
    return Status::InvalidArgument("samples_per_subset must be positive");
  if (!(options_.sample_fraction_lo > 0.0 &&
        options_.sample_fraction_lo <= options_.sample_fraction_hi))
    return Status::InvalidArgument("invalid sampling fraction range");

  Rng rng(options_.seed);
  std::vector<stats::Stratum> strata(m);
  std::vector<bool> sampled(m, false);
  std::vector<size_t> train;  // sampled subset indices, kept sorted

  // ---- Phase 1: Algorithm 1 (Gaussian regression of match proportion). ----
  // Initial training set: j0 = max(4, m*p_l) subsets, placed half
  // equidistantly by subset INDEX (covers the pair-dense similarity
  // regions, where most of D lives) and half equidistantly by SIMILARITY
  // (covers the sparse regions, where the match-proportion curve moves the
  // fastest). Pure index placement starves the sparse transition band of
  // pins; pure similarity placement starves the dense bulk.
  size_t j0 = static_cast<size_t>(
      std::ceil(static_cast<double>(m) * options_.sample_fraction_lo));
  j0 = std::max<size_t>(std::min<size_t>(4, m), std::min(j0, m));
  const size_t budget = std::max(
      j0, static_cast<size_t>(std::floor(static_cast<double>(m) *
                                         options_.sample_fraction_hi)));
  auto take_subset = [&](size_t k) {
    if (sampled[k]) return;
    strata[k] = ctx->SampleSubset(k, options_.samples_per_subset, &rng);
    sampled[k] = true;
    train.insert(std::upper_bound(train.begin(), train.end(), k), k);
  };
  {
    const size_t by_index = (j0 + 1) / 2;
    for (size_t t = 0; t < by_index; ++t) {
      take_subset(by_index == 1
                      ? 0
                      : static_cast<size_t>(std::llround(
                            static_cast<double>(t) *
                            static_cast<double>(m - 1) /
                            static_cast<double>(by_index - 1))));
    }
    const double sim_lo = partition[0].avg_similarity;
    const double sim_hi = partition[m - 1].avg_similarity;
    size_t cursor = 0;
    while (train.size() < j0 && sim_hi > sim_lo) {
      // Next unsampled subset nearest the next equidistant similarity.
      const double target =
          sim_lo + (sim_hi - sim_lo) *
                       (static_cast<double>(cursor) + 0.5) /
                       static_cast<double>(j0);
      ++cursor;
      if (cursor > 2 * j0) break;
      size_t best = m;
      double best_dist = 1e300;
      for (size_t k = 0; k < m; ++k) {
        if (sampled[k]) continue;
        const double d = std::fabs(partition[k].avg_similarity - target);
        if (d < best_dist) {
          best_dist = d;
          best = k;
        }
      }
      if (best < m) take_subset(best);
    }
  }

  HUMO_ASSIGN_OR_RETURN(gp::GpRegression gp,
                        FitGp(ctx, partition, strata, train, options_));

  // Bracket refinement, processed in order of the GP's uncertainty about
  // the bracket's midpoint (pairs-weighted posterior std). Algorithm 1 as
  // printed pops brackets FIFO, but every tested midpoint costs a sampled
  // subset even when the GP already agrees there; under a tight budget the
  // flat brackets then exhaust it before the transition band is ever
  // examined. Prioritizing by uncertainty keeps the epsilon test and the
  // bisection structure while spending the budget where the GP is blind.
  //
  // Each bracket keeps its midpoint's PredictBatch rows against the current
  // GP. A warm round only appends training points (TryWarmStart), so the
  // rows grow by one entry per new point and the score costs O(n) instead
  // of a fresh O(n^2) solve; a grid round re-selects the model and drops
  // every row.
  struct Bracket {
    size_t lo, hi;
    gp::GpRegression::QueryRows rows;  // empty until first scored
  };
  std::vector<Bracket> brackets;
  for (size_t t = 0; t + 1 < train.size(); ++t)
    brackets.push_back({train[t], train[t + 1], {}});

  while (!brackets.empty() && train.size() < budget) {
    // Score every refinable bracket's midpoint: rows not yet built come
    // from one batched prediction (one Gram build + one blocked solve),
    // kept rows are extended; either way the selection loop below sees the
    // scores a fresh PredictBatch over all midpoints gives, bit for bit.
    std::vector<size_t> refinable, unscored;
    std::vector<double> unscored_sims;
    for (size_t bi = 0; bi < brackets.size(); ++bi) {
      const Bracket& b = brackets[bi];
      if (b.hi - b.lo < 2) continue;
      refinable.push_back(bi);
      if (!b.rows.cross.empty()) continue;
      unscored.push_back(bi);
      unscored_sims.push_back(
          partition[b.lo + (b.hi - b.lo) / 2].avg_similarity);
    }
    if (!unscored.empty()) {
      linalg::Matrix whitened, cross;
      gp.PredictBatch(unscored_sims, &whitened, &cross);
      const size_t n = gp.num_training_points();
      for (size_t t = 0; t < unscored.size(); ++t) {
        gp::GpRegression::QueryRows& rows = brackets[unscored[t]].rows;
        rows.cross.assign(cross.RowPtr(t), cross.RowPtr(t) + n);
        rows.whitened.assign(whitened.RowPtr(t), whitened.RowPtr(t) + n);
      }
    }
    std::vector<gp::Prediction> preds(refinable.size());
    for (size_t t = 0; t < refinable.size(); ++t) {
      Bracket& b = brackets[refinable[t]];
      const double sim = partition[b.lo + (b.hi - b.lo) / 2].avg_similarity;
      gp.ExtendRows(sim, &b.rows);
      preds[t] = gp.PredictFromRows(sim, b.rows);
    }
    double best_score = -1.0;
    size_t best_idx = brackets.size();
    size_t best_t = refinable.size();
    for (size_t t = 0; t < refinable.size(); ++t) {
      const Bracket& b = brackets[refinable[t]];
      const size_t x = b.lo + (b.hi - b.lo) / 2;
      const double score =
          static_cast<double>(partition[x].size()) * preds[t].stddev();
      if (score > best_score) {
        best_score = score;
        best_idx = refinable[t];
        best_t = t;
      }
    }
    if (best_idx >= brackets.size()) break;  // nothing refinable remains
    const size_t ia = brackets[best_idx].lo, ib = brackets[best_idx].hi;
    brackets.erase(brackets.begin() + static_cast<long>(best_idx));
    const size_t x = ia + (ib - ia) / 2;
    if (sampled[x]) continue;
    // The winning midpoint's posterior mean was already computed above
    // (bit-identical to a fresh Predict).
    const double predicted = preds[best_t].mean;
    take_subset(x);
    const double observed = strata[x].proportion();
    if (std::fabs(predicted - observed) >= kErrorThreshold) {
      brackets.push_back({ia, x, {}});
      brackets.push_back({x, ib, {}});
    }
    bool warm = false;
    HUMO_ASSIGN_OR_RETURN(
        gp, FitGp(ctx, partition, strata, train, options_, 0.0, &warm));
    if (!warm) {
      for (Bracket& b : brackets) b.rows = {};
    }
  }

  // ---- Build the subset-level model. ----
  const double scatter = EstimateScatterVariance(strata, train);
  if (scatter > 1e-6) {
    // Refit with the scatter as observation noise so the latent curve does
    // not chase per-subset irregularity (the scatter re-enters the bound
    // computation as independent per-subset variance instead).
    HUMO_ASSIGN_OR_RETURN(
        gp, FitGp(ctx, partition, strata, train, options_, scatter));
  }
  std::vector<double> vs(m), ns(m);
  for (size_t k = 0; k < m; ++k) {
    vs[k] = partition[k].avg_similarity;
    ns[k] = static_cast<double>(partition[k].size());
  }
  // One posterior pass over every subset serves both the latent rates
  // below and the model (PredictBatch entries do not depend on the batch).
  linalg::Matrix whitened;
  const std::vector<gp::Prediction> preds = gp.PredictBatch(vs, &whitened);
  std::vector<double> scatter_vec(m);
  for (size_t k = 0; k < m; ++k)
    scatter_vec[k] = SubsetScatterVariance(preds[k].mean, ns[k], scatter);
  const double inflation =
      LooVarianceInflation(gp, partition, strata, train, scatter);
  auto model = std::make_shared<GpSubsetModel>(
      std::move(gp), std::move(vs), std::move(ns), preds, std::move(whitened),
      strata, std::move(scatter_vec), inflation);

  // ---- Phase 2: bound search with GP confidence intervals. ----
  const double conf = std::sqrt(req.theta);
  const double alpha = std::min(1.0, req.alpha + kQualityMargin);
  const double beta = std::min(1.0, req.beta + kQualityMargin);

  // Recall: maximal i with beta <= lb([i,m-1]) / (ub([0,i-1]) + lb([i,m-1])).
  // Incremental accumulators: keep = [i, m-1], lost = [0, i-1].
  GpRangeAccumulator keep(model.get()), lost(model.get());
  keep.SetRange(0, m - 1);
  lost.Clear();
  auto recall_ok = [&]() {
    const double lb_keep = keep.LowerBound(conf);
    const double ub_lost = lost.IsEmpty() ? 0.0 : lost.UpperBound(conf);
    const double denom = ub_lost + lb_keep;
    if (denom <= 0.0) return true;
    return beta <= lb_keep / denom;
  };
  size_t i = 0;
  while (i + 1 < m) {
    // Tentatively move the lower bound right: subset i leaves "keep", joins
    // "lost".
    keep.ShrinkLeft();
    if (lost.IsEmpty()) lost.SetRange(0, 0);
    else lost.ExtendRight();
    if (recall_ok()) {
      ++i;
    } else {
      // Revert.
      keep.ExtendLeft();
      lost.ShrinkRight();
      break;
    }
  }

  // Precision: minimal j >= i with
  //   alpha <= (lb([i,j]) + lb([j+1,m-1])) / (lb([i,j]) + n[j+1,m-1]).
  GpRangeAccumulator dh(model.get()), dplus(model.get());
  dh.SetRange(i, m - 1);
  dplus.Clear();
  auto precision_ok = [&]() {
    if (dplus.IsEmpty()) return true;
    const double lb_dh = dh.IsEmpty() ? 0.0 : dh.LowerBound(conf);
    const double lb_dp = dplus.LowerBound(conf);
    const double n_dp = dplus.Population();
    const double denom = lb_dh + n_dp;
    if (denom <= 0.0) return true;
    return alpha <= (lb_dh + lb_dp) / denom;
  };
  size_t j = m - 1;
  while (j > i) {
    // Tentatively move the upper bound left: subset j leaves DH, joins D+.
    dh.ShrinkRight();
    if (dplus.IsEmpty()) dplus.SetRange(j, j);
    else dplus.ExtendLeft();
    if (precision_ok()) {
      --j;
    } else {
      dh.ExtendRight();
      dplus.ShrinkLeft();
      break;
    }
  }

  PartialSamplingOutcome outcome;
  outcome.solution.h_lo = i;
  outcome.solution.h_hi = j;
  outcome.solution.empty = false;
  outcome.model = std::move(model);
  outcome.scatter = scatter;
  outcome.strata = std::move(strata);
  outcome.sampled = std::move(sampled);
  outcome.req = req;
  // Publish for later consumers on the same context (HYBR's re-extension,
  // chained bench runs): they start from this model and these strata
  // without re-asking the oracle.
  ctx->StoreSamplingOutcome(
      std::make_shared<const PartialSamplingOutcome>(outcome));
  return outcome;
}

}  // namespace humo::core
