// Microbenchmark of the incremental GP machinery behind SAMP/HYBR rounds:
//
//   refit:   full hyperparameter-grid re-selection from scratch every round
//            (gp_warm_lml_slack = -infinity) vs. rank-k Cholesky
//            appends on the previous winner (Cholesky::Extended via
//            GpRegression::ExtendedWith — the warm-start path)
//   predict: per-point GpRegression::Predict in a loop vs. PredictBatch
//            (one cross-Gram build + one blocked multi-RHS solve)
//
// across training sizes n in {64, 128, 256, 512}. Results go to stdout and,
// machine-readably, to BENCH_gp_refit.json so successive PRs can track the
// speedup trajectory next to BENCH_runtime.json.
//
// The bench also *checks* the contracts it advertises — batch predictions
// must equal per-point predictions bit-for-bit and the appended fit must
// agree with a from-scratch fit of the same kernel within 1e-9 — and exits
// nonzero on violation, so the committed JSON can't silently go stale.
//
// The pool is pinned to 1 thread, the count BENCH_gp_refit.json records:
// refit_speedup divides a grid refit (whose Gram builds fan out) by a serial
// append, so the ratio is only comparable at one fixed pool size, and
// HUMO_NUM_THREADS does not change it.
//
// Sanitizer builds (bench::kSanitized) run n = 64 only, with fewer rounds,
// queries and repetitions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "humo.h"

using namespace humo;
using bench::NowMs;

namespace {

// Largest training size run.
constexpr size_t kMaxN = bench::kSanitized ? 64 : 512;
// Appended-observation rounds per size.
constexpr size_t kRounds = bench::kSanitized ? 2 : 8;
// Prediction batch size.
constexpr size_t kQueries = bench::kSanitized ? 20 : 100;
// Timing repetitions; each row keeps the best.
constexpr size_t kReps = bench::kSanitized ? 1 : 3;
// Prediction timing repetitions. One batch over kQueries points takes about
// a millisecond at n = 512, so a single host hiccup moves one sample by a
// large fraction; many interleaved repetitions give each side a clean best.
constexpr size_t kPredictReps = bench::kSanitized ? 1 : 41;

struct SyntheticData {
  std::vector<double> x, y, noise;
};

/// Sorted similarities with a logistic match-proportion curve plus scatter —
/// the shape SAMP actually fits (see data/logistic_generator).
SyntheticData MakeData(size_t count, uint64_t seed) {
  Rng rng(seed);
  SyntheticData d;
  d.x.reserve(count);
  for (size_t i = 0; i < count; ++i) d.x.push_back(rng.NextDouble());
  std::sort(d.x.begin(), d.x.end());
  for (size_t i = 0; i < count; ++i) {
    const double latent = 1.0 / (1.0 + std::exp(-14.0 * (d.x[i] - 0.5)));
    d.y.push_back(std::clamp(latent + 0.05 * rng.NextGaussian(), 0.0, 1.0));
    d.noise.push_back(1e-4);
  }
  return d;
}

std::vector<double> Slice(const std::vector<double>& v, size_t count) {
  return std::vector<double>(v.begin(), v.begin() + count);
}

struct SizeResult {
  size_t n = 0;
  double refit_full_ms = 0.0;
  double refit_incremental_ms = 0.0;
  double refit_speedup = 0.0;
  double predict_per_point_ms = 0.0;
  double predict_batch_ms = 0.0;
  double predict_speedup = 0.0;
};

bool BitEqual(double a, double b) { return a == b || (a != a && b != b); }

int RunSize(size_t n, size_t rounds, size_t queries, size_t reps,
            size_t predict_reps, SizeResult* out) {
  out->n = n;
  const SyntheticData data = MakeData(n + rounds, /*seed=*/n);
  // Same candidate filter the SAMP optimizer applies (length scales at
  // least 1.5x the largest similarity gap): unfiltered ultra-short scales
  // are never fit in production, and their near-underflow kernel values
  // drag both timing paths into denormal territory.
  double max_gap = 0.0;
  for (size_t t = 1; t < n; ++t)
    max_gap = std::max(max_gap, data.x[t] - data.x[t - 1]);
  std::vector<gp::GpCandidate> grid;
  for (const auto& cand : gp::DefaultGpGrid())
    if (cand.length_scale >= 1.5 * max_gap) grid.push_back(cand);
  if (grid.empty()) grid.push_back({0.25, 1.5 * max_gap});
  gp::GpOptions options;
  options.noise_variance = 1e-8;

  // Baseline model both refit paths start from: the grid winner on the
  // first n observations.
  auto base = gp::SelectGpByMarginalLikelihood(
      Slice(data.x, n), Slice(data.y, n), grid, gp::KernelFamily::kRbf,
      options, Slice(data.noise, n));
  if (!base.ok()) {
    std::fprintf(stderr, "base fit failed at n=%zu: %s\n", n,
                 base.status().ToString().c_str());
    return 1;
  }

  // ---- Round-over-round refits: full grid vs. append + warm start. ----
  double best_full = 1e300, best_incr = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    const double t0 = NowMs();
    for (size_t r = 1; r <= rounds; ++r) {
      auto fit = gp::SelectGpByMarginalLikelihood(
          Slice(data.x, n + r), Slice(data.y, n + r), grid,
          gp::KernelFamily::kRbf, options, Slice(data.noise, n + r));
      if (!fit.ok()) return 1;
    }
    best_full = std::min(best_full, NowMs() - t0);

    const double t1 = NowMs();
    gp::GpRegression model = *base;
    for (size_t r = 1; r <= rounds; ++r) {
      auto warm = model.ExtendedWith({data.x[n + r - 1]}, {data.y[n + r - 1]},
                                     {data.noise[n + r - 1]});
      if (!warm.ok()) return 1;
      // The warm-start acceptance test FitGp applies each round.
      const double per_datum = warm->LogMarginalLikelihood() /
                               static_cast<double>(warm->num_training_points());
      if (per_datum < -1e12) return 1;  // keep the check from folding away
      model = std::move(*warm);
    }
    best_incr = std::min(best_incr, NowMs() - t1);

    if (rep == 0) {
      // Contract check: the appended model must agree with a from-scratch
      // fit of the SAME kernel on the same data within 1e-9.
      auto scratch = gp::GpRegression::Fit(
          model.kernel(), Slice(data.x, n + rounds), Slice(data.y, n + rounds),
          options, Slice(data.noise, n + rounds));
      if (!scratch.ok()) return 1;
      for (double q : {0.05, 0.31, 0.5, 0.77, 0.96}) {
        const auto a = model.Predict(q);
        const auto b = scratch->Predict(q);
        if (std::fabs(a.mean - b.mean) > 1e-9 ||
            std::fabs(a.variance - b.variance) > 1e-9) {
          std::fprintf(stderr,
                       "append/from-scratch divergence at n=%zu, x=%g: "
                       "mean %.17g vs %.17g\n",
                       n, q, a.mean, b.mean);
          return 1;
        }
      }
    }
  }
  out->refit_full_ms = best_full;
  out->refit_incremental_ms = best_incr;
  out->refit_speedup = best_full / best_incr;

  // ---- Prediction: per-point loop vs. one batched call. ----
  // The two sides alternate within every repetition, and which one runs
  // first alternates too, so a slow stretch of the host hits both; each
  // keeps its best time.
  Rng qrng(17);
  std::vector<double> qs(queries);
  for (double& q : qs) q = qrng.NextDouble();
  const gp::GpRegression& gp_model = *base;
  std::vector<gp::Prediction> per_point(queries), batched;
  double best_per_point = 1e300, best_batch = 1e300;
  auto time_per_point = [&] {
    const double t0 = NowMs();
    for (size_t j = 0; j < queries; ++j) per_point[j] = gp_model.Predict(qs[j]);
    best_per_point = std::min(best_per_point, NowMs() - t0);
  };
  auto time_batch = [&] {
    const double t0 = NowMs();
    batched = gp_model.PredictBatch(qs);
    best_batch = std::min(best_batch, NowMs() - t0);
  };
  for (size_t rep = 0; rep < predict_reps; ++rep) {
    if (rep % 2 == 0) {
      time_per_point();
      time_batch();
    } else {
      time_batch();
      time_per_point();
    }
  }
  out->predict_per_point_ms = best_per_point;
  out->predict_batch_ms = best_batch;
  for (size_t j = 0; j < queries; ++j) {
    if (!BitEqual(per_point[j].mean, batched[j].mean) ||
        !BitEqual(per_point[j].variance, batched[j].variance)) {
      std::fprintf(stderr,
                   "batch/per-point divergence at n=%zu, query %zu: "
                   "%.17g vs %.17g\n",
                   n, j, per_point[j].mean, batched[j].mean);
      return 1;
    }
  }
  out->predict_speedup = out->predict_per_point_ms / out->predict_batch_ms;
  return 0;
}

}  // namespace

int main() {
  ThreadPool::SetGlobalThreads(1);

  std::printf("micro_gp_refit: incremental GP refits and batched prediction\n");
  std::printf("threads=%zu rounds=%zu queries=%zu reps=%zu predict_reps=%zu\n\n",
              ThreadPool::Global()->num_threads(), kRounds, kQueries, kReps,
              kPredictReps);
  std::printf("%6s | %14s %14s %8s | %14s %14s %8s\n", "n", "full-refit ms",
              "append ms", "speedup", "per-point ms", "batch ms", "speedup");

  std::vector<bench::JsonObject> rows;
  for (size_t n : {size_t{64}, size_t{128}, size_t{256}, size_t{512}}) {
    if (n > kMaxN) continue;
    SizeResult r;
    if (RunSize(n, kRounds, kQueries, kReps, kPredictReps, &r) != 0) return 1;
    std::printf("%6zu | %14.3f %14.3f %7.1fx | %14.3f %14.3f %7.1fx\n", r.n,
                r.refit_full_ms, r.refit_incremental_ms, r.refit_speedup,
                r.predict_per_point_ms, r.predict_batch_ms, r.predict_speedup);
    bench::JsonObject& out = rows.emplace_back();
    out.Set("n", r.n);
    out.Set("refit_full_ms", r.refit_full_ms, 6);
    out.Set("refit_incremental_ms", r.refit_incremental_ms, 6);
    out.Set("refit_speedup", r.refit_speedup, 3);
    out.Set("predict_per_point_ms", r.predict_per_point_ms, 6);
    out.Set("predict_batch_ms", r.predict_batch_ms, 6);
    out.Set("predict_speedup", r.predict_speedup, 3);
  }

  bench::JsonObject doc;
  doc.Set("bench", "micro_gp_refit");
  doc.Set("threads", ThreadPool::Global()->num_threads());
  doc.Set("rounds", kRounds);
  doc.Set("queries", kQueries);
  doc.Set("reps", kReps);
  doc.Set("predict_reps", kPredictReps);
  doc.Set("results", rows);
  return bench::WriteBenchJson("BENCH_gp_refit.json", doc) ? 0 : 1;
}
