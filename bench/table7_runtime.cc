// Table VII: machine runtime of BASE / SAMP / HYBR on the (simulated) DS
// and AB workloads, as google-benchmark timings. Shape to hold:
// BASE << SAMP <= HYBR, and AB (3x the pairs, 3x the subsets) costlier
// than DS. Absolute numbers are not comparable to the paper's 2016-era
// machine (paper: DS 0.97/6.5/7.6 s; AB 3.1/20.9/53.5 s).
//
// Beyond the paper's table, every SAMP/HYBR benchmark carries a
// thread-count dimension (the benchmark Arg; the global pool is resized per
// run, results are bit-identical across counts), and the *_SharedEngine
// variants time HYBR layered on a SAMP run over one EstimationContext —
// the engine-reuse configuration that skips S0 entirely.
//
// In addition to the console table, results are written as
// machine-readable JSON to BENCH_runtime.json (google-benchmark's own
// --benchmark_out picks another file) so successive PRs can track the
// runtime trajectory.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "humo.h"

using namespace humo;

namespace {

const data::Workload& Ds() {
  static const data::Workload w = data::SimulatePairs(data::DsConfig());
  return w;
}
const data::Workload& Ab() {
  static const data::Workload w = data::SimulatePairs(data::AbConfig());
  return w;
}

void RunBase(benchmark::State& state, const data::Workload& w) {
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  for (auto _ : state) {
    core::Oracle oracle(&w);
    auto sol = core::BaselineOptimizer().Optimize(p, req, &oracle);
    benchmark::DoNotOptimize(sol);
  }
}

/// Publishes the engine's GP refit counters (how much re-estimation work the
/// incremental path absorbed) into the benchmark's JSON/console output.
void ReportGpCounters(benchmark::State& state, const core::CacheStats& stats) {
  state.counters["gp_warm_starts"] =
      static_cast<double>(stats.gp_warm_starts);
  state.counters["gp_grid_fits"] = static_cast<double>(stats.gp_grid_fits);
  state.counters["gp_rows_appended"] =
      static_cast<double>(stats.gp_rows_appended);
}

void RunSamp(benchmark::State& state, const data::Workload& w) {
  ThreadPool::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  uint64_t seed = 0;
  core::CacheStats last_stats;
  for (auto _ : state) {
    core::Oracle oracle(&w);
    core::EstimationContext ctx(&p, &oracle);
    core::PartialSamplingOptions opts;
    opts.seed = ++seed;
    auto sol = core::PartialSamplingOptimizer(opts).Optimize(&ctx, req);
    benchmark::DoNotOptimize(sol);
    last_stats = ctx.stats();
  }
  ReportGpCounters(state, last_stats);
  ThreadPool::SetGlobalThreads(0);
}

void RunHybr(benchmark::State& state, const data::Workload& w) {
  ThreadPool::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  uint64_t seed = 0;
  core::CacheStats last_stats;
  for (auto _ : state) {
    core::Oracle oracle(&w);
    core::EstimationContext ctx(&p, &oracle);
    core::HybridOptions opts;
    opts.sampling.seed = ++seed;
    auto sol = core::HybridOptimizer(opts).Optimize(&ctx, req);
    benchmark::DoNotOptimize(sol);
    last_stats = ctx.stats();
  }
  ReportGpCounters(state, last_stats);
  ThreadPool::SetGlobalThreads(0);
}

/// SAMP then HYBR on one shared EstimationContext: HYBR's S0 phase is
/// answered from the stored outcome and its re-extension from the subset
/// cache — the marginal machine (and human) cost of layering HYBR on SAMP.
void RunSampThenHybrShared(benchmark::State& state, const data::Workload& w) {
  ThreadPool::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  core::SubsetPartition p(&w, 200);
  const core::QualityRequirement req{0.9, 0.9, 0.9};
  uint64_t seed = 0;
  core::CacheStats last_stats;
  for (auto _ : state) {
    core::Oracle oracle(&w);
    core::EstimationContext ctx(&p, &oracle);
    core::PartialSamplingOptions opts;
    opts.seed = ++seed;
    auto s0 = core::PartialSamplingOptimizer(opts).Optimize(&ctx, req);
    benchmark::DoNotOptimize(s0);
    core::HybridOptions hopts;
    hopts.sampling = opts;
    auto s1 = core::HybridOptimizer(hopts).Optimize(&ctx, req);
    benchmark::DoNotOptimize(s1);
    last_stats = ctx.stats();
  }
  ReportGpCounters(state, last_stats);
  ThreadPool::SetGlobalThreads(0);
}

void BM_Table7_DS_BASE(benchmark::State& s) { RunBase(s, Ds()); }
void BM_Table7_DS_SAMP(benchmark::State& s) { RunSamp(s, Ds()); }
void BM_Table7_DS_HYBR(benchmark::State& s) { RunHybr(s, Ds()); }
void BM_Table7_DS_SAMP_HYBR_SharedEngine(benchmark::State& s) {
  RunSampThenHybrShared(s, Ds());
}
void BM_Table7_AB_BASE(benchmark::State& s) { RunBase(s, Ab()); }
void BM_Table7_AB_SAMP(benchmark::State& s) { RunSamp(s, Ab()); }
void BM_Table7_AB_HYBR(benchmark::State& s) { RunHybr(s, Ab()); }
void BM_Table7_AB_SAMP_HYBR_SharedEngine(benchmark::State& s) {
  RunSampThenHybrShared(s, Ab());
}

BENCHMARK(BM_Table7_DS_BASE)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_DS_SAMP)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_DS_HYBR)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_DS_SAMP_HYBR_SharedEngine)
    ->ArgName("threads")->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_AB_BASE)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_AB_SAMP)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_AB_HYBR)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table7_AB_SAMP_HYBR_SharedEngine)
    ->ArgName("threads")->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default the file reporter to BENCH_runtime.json (JSON) unless the
  // caller picked an output explicitly; the console table still prints.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    // Exact flag (or its =value form) only; --benchmark_out_format alone
    // must not suppress the default output file.
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_runtime.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
