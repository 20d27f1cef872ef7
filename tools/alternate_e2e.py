#!/usr/bin/env python3
"""Alternate two bench_e2e binaries on one workload and compare them pair by pair.

Runs a parent and a change build of bench/e2e's bench_e2e on the same
inputs, one single-thread process per run, in ABBA order (pair 1 runs
parent then change, pair 2 change then parent, and so on), so that a host
slowing down or speeding up over the session lands on both sides alike.
Pair i runs seed first_seed + i at repetition --rep on both binaries.

For every pair it prints resolve_s, setup_s and peak_rss_mb of both runs and
the change's delta; then each metric's medians, the median of the per-pair
deltas, and in how many pairs the change read lower (all three metrics are
lower-better). It also checks that both runs of a pair agree on the output
digest and on the list of failed checks, and that neither failed a check or
crashed. It exits 1 when any of those checks fails.

  python3 tools/alternate_e2e.py --parent ../parent/build-e2e/bench_e2e \\
      --change build-e2e/bench_e2e --workload records-1m --seeds 10

Run the same binary as both sides (an A/A run) to see how far apart two
identical builds read on the host at hand.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ["resolve_s", "setup_s", "peak_rss_mb"]
RUN_TIMEOUT_S = 150  # bench/e2e/run.py's limit per repetition
THREADS = 1  # bench/e2e/run.py's DEFAULT_THREADS


def run(binary, workload, seed, rep):
    """One bench_e2e process; its JSON record, or {"crashed": reason}."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--rep",
           str(rep), "--threads", str(THREADS)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out after %d s" % RUN_TIMEOUT_S}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": "exit %d: %s" % (proc.returncode,
                                            proc.stderr.strip()[-300:])}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": "no JSON record on the last line of stdout"}


def delta(parent, change):
    return (change - parent) / parent if parent else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent bench_e2e")
    parser.add_argument("--change", required=True, help="change bench_e2e")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of pairs, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args()
    for binary in (args.parent, args.change):
        if not os.access(binary, os.X_OK):
            raise SystemExit("alternate_e2e.py: %s is not an executable" %
                             binary)
    if args.seeds < 1:
        raise SystemExit("alternate_e2e.py: --seeds must be at least 1")

    problems = []
    agree = True  # digests and failure lists, over the pairs that ran
    pairs = []  # (seed, parent record, change record)
    print("%s, %d pairs, rep %d, %d thread(s), ABBA order" %
          (args.workload, args.seeds, args.rep, THREADS))
    print("each metric: parent -> change (change's delta)")
    print("%5s %-6s %s" % ("seed", "first", "  ".join(
        "%-30s" % m for m in METRICS)))
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        record = {}
        for side in order:
            binary = args.parent if side == "parent" else args.change
            record[side] = run(binary, args.workload, seed, args.rep)
        parent, change = record["parent"], record["change"]
        crashed = [s for s in ("parent", "change") if "crashed" in record[s]]
        for side in crashed:
            problems.append("seed %d: %s run crashed: %s" %
                            (seed, side, record[side]["crashed"]))
        if crashed:
            continue
        for side in ("parent", "change"):
            if record[side]["failures"]:
                problems.append("seed %d: %s run failed %s" %
                                (seed, side, record[side]["failures"]))
        agree &= (parent["digest"] == change["digest"] and
                  parent["failures"] == change["failures"])
        if parent["digest"] != change["digest"]:
            problems.append("seed %d: digests differ (parent %s, change %s)" %
                            (seed, parent["digest"], change["digest"]))
        if parent["failures"] != change["failures"]:
            problems.append("seed %d: failure lists differ" % seed)
        pairs.append((seed, parent, change))
        print("%5d %-6s %s" % (seed, order[0], "  ".join(
            "%-30s" % ("%.4g -> %.4g (%+.1f%%)" % (
                parent[m], change[m], 100 * delta(parent[m], change[m])))
            for m in METRICS)))

    if pairs:
        print("\nmedians over %d pairs:" % len(pairs))
        for m in METRICS:
            p = [pr[m] for _, pr, _ in pairs]
            c = [ch[m] for _, _, ch in pairs]
            d = [delta(pr[m], ch[m]) for _, pr, ch in pairs]
            wins = sum(1 for _, pr, ch in pairs if ch[m] < pr[m])
            print("  %-12s parent %.4g  change %.4g  median delta %+.1f%%  "
                  "change lower in %d of %d" %
                  (m, statistics.median(p), statistics.median(c),
                   100 * statistics.median(d), wins, len(pairs)))
    print("\ndigests and failure lists %s" %
          ("agree on every pair" if agree and pairs else "DO NOT agree"))
    for problem in problems:
        print("FAILED: " + problem)
    return 1 if problems or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
