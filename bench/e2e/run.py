#!/usr/bin/env python3
"""humo-e2e: the repository's end-to-end benchmark (see README.md).

  python3 bench/e2e/run.py [--out FILE] [--trace] [--seed N]
      Builds bench_e2e (Release), runs every workload with RUNS_PER_SET seeds
      from N on, prints every metric by name with its unit, checks the
      outputs, and exits nonzero on any failed check. --trace adds one traced
      run per workload with per-layer metrics, self times and the tracing
      overhead.
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload; the last line of stdout is one JSON object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.
  python3 bench/e2e/run.py compare A.json B.json
      Applies BENCHMARK.json's bounds to every (metric, workload) pair of two
      result files, and compares human cost, quality and error fraction seed
      by seed: better, same, worse, or unresolved.
  python3 bench/e2e/run.py --selftest
      Checks that compare flags an out-of-bound regression and passes an
      in-bound wobble.

Every repetition runs in its own bench_e2e process. A run's repetitions
resolve distinct inputs derived from (seed, repetition); the number of
repetitions is fixed per workload by --seconds, so one seed always means the
same inputs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
REP_TIMEOUT_S = 150
THETA = 0.9  # confidence of the certified requirement (0.9, 0.9, 0.9)
RUNS_PER_SET = 5  # seeds per workload in a full set
# Library pool threads. On a few cores shared with other load, a 4-thread
# ParallelFor waits for its slowest thread, so its time follows the
# neighbours; one thread keeps the runs steady (README.md, "Steadiness").
DEFAULT_THREADS = 1
# compare: setup_s is worse only when it grows by more than its bound AND by
# more than this many seconds (input generation of 15-600 ms is noisy).
SETUP_FLOOR_S = 0.05
# compare: quality_met_frac may fall this much (absolute) before it is worse.
QUALITY_BOUND = 0.05
CERTIFIERS = ["base", "samp", "hybr", "risk"]

# Nominal seconds of one repetition at DEFAULT_THREADS on a 4-vCPU Xeon while
# the host is busy (up to 1.5x the quiet time), so that a run stays near
# --seconds when the host is slow: the repetition count of a run is
# round(seconds / rep_s), at least MIN_REPS. Fixed numbers, not measured
# ones, so that the inputs of a run depend on its seed alone.
WORKLOADS = {
    "pairs-1m": {"rep_s": 2.8},
    "records-1m": {"rep_s": 5.0},
    "serve-100k": {"rep_s": 2.6},
    "paper-ab": {"rep_s": 2.7},
    "paper-ds": {"rep_s": 1.6},
}
MIN_REPS = 4

# Spans whose self time is reported as a per-layer metric "<span>_s".
LAYER_SPANS = [
    "data.tokenize", "data.block", "data.build", "core.partition",
    "core.estimate", "core.oracle", "core.label", "entity.cluster",
    "core.serve.ingest", "core.serve.drain",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def allowed_threads():
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------- build --

def build():
    """Configures and builds bench_e2e (incrementally after the first time);
    returns its --info record."""
    jobs = str(min(4, allowed_threads()))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "bench_e2e"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    proc = subprocess.run([BINARY, "--info"], stdout=subprocess.PIPE,
                          text=True, timeout=60)
    info = json.loads(proc.stdout)
    if info["build_type"] != "Release":
        raise SystemExit("run.py: refusing a %s build" % info["build_type"])
    return info


# ---------------------------------------------------------- repetitions --

def run_rep(workload, seed, rep, threads, trace_path=None):
    """One repetition in a fresh process; returns its JSON record, or a
    record carrying the crash as a failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--threads", str(threads)]
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out after %d s" % REP_TIMEOUT_S}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": "exit %d: %s" % (proc.returncode,
                                            proc.stderr.strip()[-500:])}
    return json.loads(lines[-1])


def rep_count(workload, seconds):
    return max(MIN_REPS, round(seconds / WORKLOADS[workload]["rep_s"]))


def trace_self_times(path):
    """Per-span-name self time (duration minus direct children), seconds,
    plus the summed duration of the root "resolve" spans."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    child_us = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    self_s, resolve_s = {}, 0.0
    for e in events:
        own = e["dur"] - child_us.get(e["args"]["id"], 0.0)
        self_s[e["name"]] = self_s.get(e["name"], 0.0) + own / 1e6
        if e["name"] == "resolve":
            resolve_s += e["dur"] / 1e6
    return self_s, resolve_s


def binomial_cdf(k, n, p):
    return sum(math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) -
                        math.lgamma(n - i + 1) + i * math.log(p) +
                        (n - i) * math.log1p(-p))
               for i in range(k + 1))


def human_cost(records):
    """Mean oracle-inspected fraction per certifier that ran, over its
    certifications: {"human_cost_frac.<certifier>": mean}."""
    out = {}
    for c in CERTIFIERS:
        n = sum(r["values"].get("certifications." + c, 0) for r in records)
        if n:
            out["human_cost_frac." + c] = sum(
                r["values"]["human_cost_frac." + c] for r in records
                if "human_cost_frac." + c in r["values"]) / n
    return out


def percentile(histogram, q):
    """q-quantile (nearest rank) of pooled [value, count] histograms."""
    pooled = {}
    for value, count in histogram:
        pooled[value] = pooled.get(value, 0) + count
    total = sum(pooled.values())
    if total == 0:
        return 0.0
    rank = min(total, max(1, math.ceil(q * total)))
    seen = 0
    for value in sorted(pooled):
        seen += pooled[value]
        if seen >= rank:
            return value
    return 0.0


class Run:
    """All repetitions of one run of one workload, and its checks."""

    def __init__(self, workload, seed, threads):
        self.workload, self.seed, self.threads = workload, seed, threads
        self.reps, self.traced = [], []
        self.attempted, self.failures = 0, []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def add_rep(self, record, traced=False):
        if "crashed" in record:
            self.check(False, "%s: %s" % (self.workload, record["crashed"]))
            return False
        self.attempted += record["attempted"]
        self.failures += ["%s rep %d: %s" % (self.workload, record["rep"], f)
                          for f in record["failures"]]
        (self.traced if traced else self.reps).append(record)
        return True

    def execute(self, seconds, trace):
        reps = rep_count(self.workload, seconds)
        if not trace:
            for rep in range(reps):
                self.add_rep(run_rep(self.workload, self.seed, rep,
                                     self.threads))
        else:
            os.makedirs(TRACE_DIR, exist_ok=True)
            for rep in range(max(1, reps // 2)):
                path = os.path.join(TRACE_DIR, "%s-%d-%d.json" % (
                    self.workload, self.seed, rep))
                plain = run_rep(self.workload, self.seed, rep, self.threads)
                traced = run_rep(self.workload, self.seed, rep, self.threads,
                                 path)
                if self.add_rep(plain) and self.add_rep(traced, traced=True):
                    traced["trace_path"] = path
                    self.check(plain["digest"] == traced["digest"],
                               "%s rep %d: traced outputs == untraced" % (
                                   self.workload, rep))
        # Traced repetitions repeat untraced inputs; count each input once.
        met = sum(r["values"].get("quality_met", 0) for r in self.reps)
        checked = sum(r["values"].get("quality_checked", 0) for r in self.reps)
        # The certificate holds with confidence theta per certification; fail
        # only when the success count is implausibly low for rate theta.
        self.check(checked == 0 or
                   binomial_cdf(int(met), int(checked), THETA) >= 1e-3,
                   "%s: %d of %d certifications met (alpha, beta)" % (
                       self.workload, met, checked))
        return self

    # -- metrics --

    def end_to_end(self):
        """Times are the fastest repetition's: other load on the host only
        adds time, in stretches of seconds to minutes, so the fastest of a
        run's fresh processes is the least disturbed one. Peak RSS does not
        depend on the host's load and is the median."""
        reps = self.reps
        if not reps:
            return {}
        return {
            "resolve_s": min(r["resolve_s"] / r["inputs"] for r in reps),
            "setup_s": min(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }

    def exact(self):
        """The run's deterministic outputs, from its untraced repetitions:
        mean human cost per certifier, quality and checked operations."""
        out = human_cost(self.reps)
        for name in ["quality_met", "quality_checked"]:
            out[name] = int(sum(r["values"].get(name, 0) for r in self.reps))
        out["reps"] = len(self.reps)
        out["attempted"] = self.attempted
        out["failed"] = len(self.failures)
        return out

    def per_layer(self):
        """(per-layer metrics, self time per input by span name)."""
        traced, plain = self.traced, self.reps
        if not traced:
            return {}, {}

        def total(records, name):
            return sum(r["values"].get(name, 0.0) for r in records)

        def ratio(num, den, records=traced):
            d = total(records, den)
            return total(records, num) / d if d else 0.0

        def samples(records, name):
            return [s for r in records for s in r["samples"].get(name, [])]

        inputs = sum(r["inputs"] for r in traced)
        m = {}
        self_s, resolve_s = {}, 0.0
        for r in traced:
            spans, resolved = trace_self_times(r["trace_path"])
            resolve_s += resolved
            for name, seconds in spans.items():
                self_s[name] = self_s.get(name, 0.0) + seconds
        for name in LAYER_SPANS:
            m[name + "_s"] = self_s.get(name, 0.0) / inputs
        m["data.block_pairs"] = total(traced, "data.block_pairs") / inputs
        m["data.block_match_frac"] = ratio("data.block_matches",
                                           "data.block_pairs")
        m["data.block_recall"] = ratio("data.block_matches",
                                       "data.true_matches")
        for name in ["core.estimate.sampled_subsets", "gp.grid_fits",
                     "gp.warm_starts", "gp.rows_appended",
                     "core.oracle.batches", "core.oracle.pairs",
                     "entity.entities", "core.serve.snapshots",
                     "core.serve.reviews_folded", "core.stream.sync_s"]:
            m[name] = total(traced, name) / inputs
        m.update({name: human_cost(traced).get(name, 0.0)
                  for name in ("human_cost_frac." + c for c in CERTIFIERS)})
        m["core.estimate.cache_hit_frac"] = ratio(
            "core.estimate.cache_hits", "core.estimate.cache_lookups")
        m["core.oracle.batch_pairs.p50"] = percentile(
            samples(traced, "core.oracle.batch_pairs"), 0.5)
        m["core.oracle.dup_frac"] = ratio("core.oracle.duplicates",
                                          "core.oracle.requests")
        m["core.label.machine_frac"] = ratio("core.label.machine_pairs",
                                             "pairs_certified")
        cert_ms = samples(traced, "core.serve.request_cert_ms")
        calls = sum(c for _, c in cert_ms)
        m["core.serve.request_cert_ms"] = (
            sum(v * c for v, c in cert_ms) / calls if calls else 0.0)
        for q in ["p50", "p99"]:
            m["core.serve.snapshot_ns." + q] = statistics.median(
                r["values"].get("core.serve.snapshot_ns." + q, 0.0)
                for r in traced)
        m["lookups_per_s"] = statistics.median(
            r["values"].get("lookups", 0.0) / r["resolve_s"] for r in plain)
        ingest = samples(plain, "ingest_ms")
        m["ingest_ms.p50"] = percentile(ingest, 0.50)
        m["ingest_ms.p95"] = percentile(ingest, 0.95)
        m["quality_met_frac"] = ratio("quality_met", "quality_checked")
        m["trace.overhead_s"] = (
            sum(r["resolve_s"] for r in traced) -
            sum(r["resolve_s"] for r in plain)) / inputs
        uncovered = self_s.get("resolve", 0.0)
        m["trace.coverage"] = 1.0 - uncovered / resolve_s if resolve_s else 0.0
        self.check(m["trace.coverage"] >= 0.9,
                   "%s: layer spans cover %.3f of traced resolve_s" % (
                       self.workload, m["trace.coverage"]))
        return m, {k: v / inputs for k, v in sorted(self_s.items())}


# ------------------------------------------------------------- printing --

def units(benchmark):
    return {m["name"]: m["unit"]
            for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def print_metrics(workload, metrics, unit_of, stream=sys.stdout):
    for name, value in metrics.items():
        print("  %-14s %-30s %14.6g %s" % (workload, name, value,
                                            unit_of.get(name, "")),
              file=stream)


def print_self_times(workload, self_s, stream=sys.stdout):
    resolve_s = sum(self_s.values())
    print("  %s: self time per input (traced resolve %.4g s)" % (
        workload, resolve_s), file=stream)
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = seconds / resolve_s if resolve_s else 0.0
        print("    %-24s %10.4f s  %5.1f%%" % (name, seconds, 100 * share),
              file=stream)


# ---------------------------------------------------------------- modes --

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(info, args):
    return {
        "git_sha": git_sha(), "nproc": allowed_threads(), "cpu": cpu_model(),
        "avx2": info["avx2"], "threads": args.threads, "seed": args.seed,
        "seconds": args.seconds, "build_type": info["build_type"],
    }


def single_run(args, benchmark):
    """One run of one workload in the protocol BENCHMARK.json names."""
    log("humo-e2e:", json.dumps(metadata(build(), args)))
    unit_of = units(benchmark)
    run = Run(args.workload, args.seed, args.threads).execute(
        args.seconds, bool(args.trace))
    if args.trace:
        layer, self_s = run.per_layer()
        names = [m["name"] for m in benchmark["per_layer"]]
        print_self_times(args.workload, self_s)
    else:
        layer = run.end_to_end()
        names = [m["name"] for m in benchmark["end_to_end"]]
    metrics = {n: {"value": layer[n], "unit": unit_of[n]}
               for n in names if n in layer}
    print_metrics(args.workload, {n: v["value"] for n, v in metrics.items()},
                  unit_of)
    for failure in run.failures:
        log("FAILED:", failure)
    correct = not run.failures and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


def exact_summary(runs):
    """The exact outputs of a workload's runs, pooled: mean human cost per
    certifier, quality_met_frac and error_frac."""
    exact = [r["exact"] for r in runs]
    out = {}
    for c in CERTIFIERS:
        name = "human_cost_frac." + c
        values = [e[name] for e in exact if name in e]
        if values:
            out[name] = sum(values) / len(values)
    checked = sum(e["quality_checked"] for e in exact)
    if checked:
        out["quality_met_frac"] = sum(
            e["quality_met"] for e in exact) / checked
    out["error_frac"] = sum(e["failed"] for e in exact) / max(
        1, sum(e["attempted"] for e in exact))
    return out


def full_mode(args, benchmark):
    meta = metadata(build(), args)
    log("humo-e2e:", json.dumps(meta))
    unit_of = units(benchmark)
    unit_of["error_frac"] = "ratio"
    results, failures, attempted = {}, [], 0
    for workload in WORKLOADS:
        entry = {"runs": []}
        for seed in range(args.seed, args.seed + RUNS_PER_SET):
            run = Run(workload, seed, args.threads).execute(args.seconds,
                                                            False)
            metrics = run.end_to_end()
            entry["runs"].append({"seed": seed, "metrics": metrics,
                                  "exact": run.exact()})
            print_metrics(workload, metrics, unit_of)
            attempted += run.attempted
            failures += run.failures
        print_metrics(workload, exact_summary(entry["runs"]), unit_of)
        if args.trace:
            run = Run(workload, args.seed, args.threads).execute(
                args.seconds, True)
            layer, self_s = run.per_layer()
            attempted += run.attempted
            failures += run.failures
            if layer:
                print_metrics(workload, layer, unit_of)
                print_self_times(workload, self_s)
                entry["per_layer"] = layer
        results[workload] = entry
    error_frac = len(failures) / max(1, attempted)
    print("error_frac %.6g (%d of %d operations failed)" % (
        error_frac, len(failures), attempted))
    for failure in failures:
        log("FAILED:", failure)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"meta": meta, "workloads": results}, f, indent=1)
        log("wrote", args.out)
    return 0 if not failures else 1


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


# -------------------------------------------------------------- compare --

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """better / same / worse / unresolved for one (metric, workload) pair:
    `a` the parent's run values, `b` the change's."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    beats = all(sign * (y - x) < 0 for x in a for y in b)
    loses = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        if beats:
            return "better", delta, spread
        if loses and delta > bound:
            return "worse", delta, spread
        return "unresolved", delta, spread
    if delta > bound:
        return "worse", delta, spread
    if delta < -bound:
        return "better", delta, spread
    return "same", delta, spread


def exact_verdicts(runs_a, runs_b):
    """(name, A, B, verdict) for the outputs that are exact per seed, over the
    seeds both files ran with the same repetitions (so on the same inputs):
    human cost per certifier and error_frac must not rise at all,
    quality_met_frac must not fall by more than QUALITY_BOUND."""
    a = {r["seed"]: r["exact"] for r in runs_a if "exact" in r}
    b = {r["seed"]: r["exact"] for r in runs_b if "exact" in r}
    seeds = [s for s in sorted(set(a) & set(b))
             if a[s]["reps"] == b[s]["reps"]]
    names = sorted({k for e in list(a.values()) + list(b.values())
                    for k in e if k.startswith("human_cost_frac.")})

    def mean(side, name):
        values = [side[s][name] for s in seeds if name in side[s]]
        return sum(values) / len(values) if values else None

    def pooled(side, num, den):
        d = sum(side[s][den] for s in seeds)
        return sum(side[s][num] for s in seeds) / d if d else None

    rows = [(name, mean(a, name), mean(b, name), 0.0, "lower")
            for name in names]
    rows.append(("quality_met_frac", pooled(a, "quality_met",
                                            "quality_checked"),
                 pooled(b, "quality_met", "quality_checked"), QUALITY_BOUND,
                 "higher"))
    rows.append(("error_frac", pooled(a, "failed", "attempted"),
                 pooled(b, "failed", "attempted"), 0.0, "lower"))
    out = []
    for name, x, y, bound, better in rows:
        if x is None or y is None:
            out.append((name, x, y, "unresolved"))
            continue
        delta = (y - x) if better == "lower" else (x - y)
        if abs(delta) <= bound:
            v = "same"
        else:
            v = "worse" if delta > 0 else "better"
        out.append((name, x, y, v))
    return out


def compare(a, b, benchmark, stream=sys.stdout):
    """Prints one verdict per (metric, workload); returns the verdicts."""
    verdicts = []
    print("%-14s %-14s %24s %24s %8s %7s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "delta", "spread", "verdict"), file=stream)
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in runs_b if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            bound = metric["bound"]
            if name == "setup_s" and qa[1] > 0:
                bound = max(bound, SETUP_FLOOR_S / qa[1])
            v, delta, spread = verdict(va, vb, metric["better"], bound)
            print("%-14s %-14s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] "
                  "%+7.1f%% %6.1f%%  %s" % (
                      workload, name, qa[1], qa[0], qa[2], qb[1], qb[0],
                      qb[2], 100 * delta, 100 * spread, v), file=stream)
            verdicts.append((workload, name, v))
        for name, x, y, v in exact_verdicts(runs_a, runs_b):
            print("%-14s %-22s %16s %16s  exact per seed  %s" % (
                workload, name, "-" if x is None else "%.10g" % x,
                "-" if y is None else "%.10g" % y, v), file=stream)
            verdicts.append((workload, name, v))
        la = a["workloads"][workload].get("per_layer", {})
        lb = b["workloads"][workload].get("per_layer", {})
        for name in sorted(set(la) & set(lb)):
            print("%-14s %-34s %14.6g %14.6g  (per-layer, no bound)" % (
                workload, name, la[name], lb[name]), file=stream)
    return verdicts


def compare_mode(paths, benchmark):
    with open(paths[0]) as f:
        a = json.load(f)
    with open(paths[1]) as f:
        b = json.load(f)
    verdicts = compare(a, b, benchmark)
    bad = [v for v in verdicts if v[2] in ("worse", "unresolved")]
    print("%d pairs: %d worse or unresolved" % (len(verdicts), len(bad)))
    return 1 if bad else 0


def selftest(benchmark):
    """An injected out-of-bound regression is flagged, an in-bound wobble
    passes, and so does a setup_s rise inside the absolute floor."""
    def results(scale, values=(0.99, 1.0, 1.01, 0.995, 1.005), setup=None,
                cost=0.2, met=9, failed=0):
        runs = []
        for i, x in enumerate(values):
            metrics = {m["name"]: x * scale(m)
                       for m in benchmark["end_to_end"]}
            if setup is not None:
                metrics["setup_s"] = x * setup
            runs.append({"seed": i, "metrics": metrics, "exact": {
                "reps": 5, "human_cost_frac.samp": cost, "quality_met": met,
                "quality_checked": 10, "attempted": 100, "failed": failed}})
        return {"workloads": {"w": {"runs": runs}}}

    def one(m):
        return 1.0

    regression = 1.0 + 3 * max(m["bound"] for m in benchmark["end_to_end"])
    cases = [
        (results(one), results(one), {}, "same"),
        (results(one), results(lambda m: 1.0 + m["bound"] / 3), {}, "same"),
        (results(one),
         results(lambda m: regression if m["better"] == "lower"
                 else 1.0 / regression, cost=0.2001, met=8, failed=1),
         {}, "worse"),
        (results(one), results(one, values=(0.5, 1.0, 1.5, 0.7, 1.3)),
         {"human_cost_frac.samp": "same", "quality_met_frac": "same",
          "error_frac": "same"}, "unresolved"),
        # setup_s from 20 ms to 60 ms stays inside SETUP_FLOOR_S; to 90 ms not.
        (results(one, setup=0.02), results(one, setup=0.06), {}, "same"),
        (results(one, setup=0.02), results(one, setup=0.09),
         {name: "same" for name in
          [m["name"] for m in benchmark["end_to_end"]] +
          ["human_cost_frac.samp", "quality_met_frac", "error_frac"]
          if name != "setup_s"}, "worse"),
    ]
    ok = True
    with open(os.devnull, "w") as sink:
        for case, (base, other, expect_by_name, expect) in enumerate(cases):
            for workload, name, v in compare(base, other, benchmark, sink):
                want = expect_by_name.get(name, expect)
                if v != want:
                    log("selftest case %d: %s %s -> %s, expected %s" % (
                        case, workload, name, v, want))
                    ok = False
    print("selftest %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare_mode(sys.argv[2:], load_benchmark())
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS)
    parser.add_argument("--out", help="results JSON of the full set")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(benchmark)
    if not 1 <= args.threads <= allowed_threads():
        raise SystemExit("run.py: --threads must be in [1, %d] (nproc)" %
                         allowed_threads())
    if args.seed < 0:
        raise SystemExit("run.py: --seed must be non-negative")
    if args.workload:
        return single_run(args, benchmark)
    return full_mode(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
