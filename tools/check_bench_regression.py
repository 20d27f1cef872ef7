#!/usr/bin/env python3
"""CI performance-regression gate over the committed BENCH_*.json baselines.

Compares a freshly produced bench JSON against the committed baseline and
fails (exit 1) when any CONTRACT field regresses by more than TOLERANCE
(20%), when an exact field changes, or when a ratchet field grows at all.
Contract fields are mostly ratios and counters that are stable across
machines — speedups, cost ratios, reuse counts, bit-identity flags. The entity bench is the exception: its cluster throughput and repair
time are raw wall-clock numbers, gated because no ratio pins the entity
layer's speed. Rows are matched by a per-bench key, and the candidate must
cover exactly the baseline's rows: a baseline row with no matching candidate
row, and a candidate row the baseline lacks, each fail the gate.

Usage:
  check_bench_regression.py --baseline BENCH_gp_refit.json \
      --candidate build/BENCH_gp_refit.json
  check_bench_regression.py --selftest

The per-bench contract (keyed by the JSON's "bench" field):
  micro_gp_refit  key (n)            higher-better refit_speedup,
                                     predict_speedup
  streaming       key (workload,     lower-better  cost_ratio
                  mode, certifier,   higher-better reused_answers
                  shards, order,     exact         identical_labels
                  pairs)
  records_scale   key (scale)        higher-better simd_speedup, lsh_recall
                                     exact         lsh_pairs, samp_cost,
                                                   scores_identical
  serving         key (workload,     higher-better lookups_per_sec
                  pairs, shards,     lower-better  mutate_over_sync
                  readers)           exact         drained_equals_synchronous,
                                                   snapshots_consistent
  entities        key (pairs)        higher-better cluster_mpairs_per_sec
                                     lower-better  repair_ms
                                     exact         records, entities,
                                                   disagreements_before,
                                                   disagreements_after,
                                                   exact_recovery,
                                                   repaired_transitive,
                                                   thread_invariant
  crowd           key (workload,     higher-better inferred_fraction,
                  certifier, pairs)                task_reduction
                                     exact         tasks_le_questions,
                                                   certified,
                                                   thread_invariant
  paper           key (preset,       exact         runs, met
                  optimizer, alpha,  ratchet       band_gap, order_gap
                  theta)

A ratchet field is a distance from a paper claim: the candidate must not
exceed the baseline, with no tolerance. A change that shrinks it passes,
and re-recording the baseline then locks the gain in.

A field the bench wrote as null (a non-finite double) counts as missing and
fails the gate.

Rows are comparable only at the same pool size: when the candidate's
top-level "threads" differs from the baseline's (including one of them
lacking it), the gate fails before comparing any row.

--selftest proves the gate can actually fail: it fabricates a baseline,
injects a 25% regression into a copy, and asserts the comparison rejects it
(and accepts the unmodified copy). It also asserts that a ratchet field that
grows is rejected and one that stays equal or shrinks passes.
"""

import argparse
import copy
import json
import sys

TOLERANCE = 0.20

# bench name -> (row key fields, higher-better, lower-better, exact,
# ratchet); a missing category is empty
CONTRACTS = {
    "micro_gp_refit": {
        "key": ("n",),
        "higher": ("refit_speedup", "predict_speedup"),
        "lower": (),
        "exact": (),
    },
    "streaming": {
        "key": ("workload", "mode", "certifier", "shards", "order", "pairs"),
        "higher": ("reused_answers",),
        "lower": ("cost_ratio",),
        "exact": ("identical_labels",),
    },
    "records_scale": {
        "key": ("scale",),
        "higher": ("simd_speedup", "lsh_recall"),
        "lower": (),
        "exact": ("lsh_pairs", "samp_cost", "scores_identical"),
    },
    "serving": {
        "key": ("workload", "pairs", "shards", "readers"),
        "higher": ("lookups_per_sec",),
        # serving write side over the bare resolver on the same schedule
        "lower": ("mutate_over_sync",),
        "exact": ("drained_equals_synchronous", "snapshots_consistent"),
    },
    "entities": {
        "key": ("pairs",),
        "higher": ("cluster_mpairs_per_sec",),
        "lower": ("repair_ms",),
        "exact": (
            "records",
            "entities",
            "disagreements_before",
            "disagreements_after",
            "exact_recovery",
            "repaired_transitive",
            "thread_invariant",
        ),
    },
    "crowd": {
        "key": ("workload", "certifier", "pairs"),
        # DS/AB rows carry inferred_fraction 0 (degree-1 records, nothing
        # to infer); the b > 0 guard keeps them out of the ratio check and
        # the ENT rows gate at the standard 20% tolerance.
        "higher": ("inferred_fraction", "task_reduction"),
        "lower": (),
        "exact": ("tasks_le_questions", "certified", "thread_invariant"),
    },
    "paper": {
        "key": ("preset", "optimizer", "alpha", "theta"),
        "higher": (),
        "lower": (),
        "exact": ("runs", "met"),
        "ratchet": ("band_gap", "order_gap"),
    },
}


def load(path):
    with open(path) as f:
        return json.load(f)


def row_key(row, fields):
    return tuple(row.get(f) for f in fields)


def compare(baseline, candidate):
    """Returns a list of violation strings (empty = gate passes)."""
    bench = baseline.get("bench")
    if bench != candidate.get("bench"):
        return [
            "bench mismatch: baseline %r vs candidate %r"
            % (bench, candidate.get("bench"))
        ]
    contract = CONTRACTS.get(bench)
    if contract is None:
        return ["no contract registered for bench %r" % bench]
    if baseline.get("threads") != candidate.get("threads"):
        return [
            "%s: threads mismatch: baseline ran at %r, candidate at %r"
            % (bench, baseline.get("threads"), candidate.get("threads"))
        ]

    base_rows = {
        row_key(r, contract["key"]): r for r in baseline.get("results", [])
    }
    violations = []
    matched = set()
    for row in candidate.get("results", []):
        key = row_key(row, contract["key"])
        label = "%s %s" % (bench, dict(zip(contract["key"], key)))
        base = base_rows.get(key)
        if base is None:
            violations.append("%s: row missing from the baseline" % label)
            continue
        matched.add(key)
        for field in contract["higher"]:
            b, c = base.get(field), row.get(field)
            if b is None or c is None:
                violations.append("%s: missing field %r" % (label, field))
            elif b > 0 and c < b * (1.0 - TOLERANCE):
                violations.append(
                    "%s: %s regressed %.3f -> %.3f (>%.0f%% below baseline)"
                    % (label, field, b, c, TOLERANCE * 100)
                )
        for field in contract["lower"]:
            b, c = base.get(field), row.get(field)
            if b is None or c is None:
                violations.append("%s: missing field %r" % (label, field))
            elif c > b * (1.0 + TOLERANCE):
                violations.append(
                    "%s: %s regressed %.3f -> %.3f (>%.0f%% above baseline)"
                    % (label, field, b, c, TOLERANCE * 100)
                )
        for field in contract["exact"]:
            b, c = base.get(field), row.get(field)
            if c is None and b is not None:
                violations.append("%s: missing field %r" % (label, field))
            elif b != c:
                violations.append(
                    "%s: %s changed exactly-pinned value %r -> %r"
                    % (label, field, b, c)
                )
        for field in contract.get("ratchet", ()):
            b, c = base.get(field), row.get(field)
            if b is None or c is None:
                violations.append("%s: missing field %r" % (label, field))
            elif c > b:
                violations.append(
                    "%s: %s grew %.6f -> %.6f (a ratchet may only shrink)"
                    % (label, field, b, c)
                )
    for key in base_rows:
        if key not in matched:
            violations.append(
                "%s %s: baseline row missing from the candidate"
                % (bench, dict(zip(contract["key"], key)))
            )
    if not matched:
        violations.append(
            "no candidate row matched any baseline row (keys: %s)"
            % (contract["key"],)
        )
    return violations


def selftest():
    baseline = {
        "bench": "micro_gp_refit",
        "threads": 1,
        "results": [
            {"n": 64, "refit_speedup": 120.0, "predict_speedup": 2.0},
            {"n": 128, "refit_speedup": 250.0, "predict_speedup": 2.6},
        ],
    }
    clean = copy.deepcopy(baseline)
    assert compare(baseline, clean) == [], (
        "selftest: identical run must pass"
    )

    regressed = copy.deepcopy(baseline)
    regressed["results"][0]["refit_speedup"] *= 0.75  # injected 25% loss
    violations = compare(baseline, regressed)
    assert violations, "selftest: 25% regression must be rejected"

    nulled = copy.deepcopy(baseline)
    nulled["results"][1]["predict_speedup"] = None  # a non-finite double
    assert compare(baseline, nulled), (
        "selftest: a null contract field must be rejected"
    )

    other_pool = copy.deepcopy(baseline)
    other_pool["threads"] = 4
    assert compare(baseline, other_pool), (
        "selftest: a candidate run at another thread count must be rejected"
    )
    no_pool = copy.deepcopy(baseline)
    del no_pool["threads"]
    assert compare(baseline, no_pool), (
        "selftest: a candidate without a thread count must be rejected"
    )

    dropped = copy.deepcopy(baseline)
    del dropped["results"][1]  # the n=128 row is not run
    assert compare(baseline, dropped), (
        "selftest: a baseline row the candidate lacks must be rejected"
    )
    extra = copy.deepcopy(baseline)
    extra["results"].append(
        {"n": 1024, "refit_speedup": 300.0, "predict_speedup": 3.0}
    )
    assert compare(baseline, extra), (
        "selftest: a candidate row the baseline lacks must be rejected"
    )

    within = copy.deepcopy(baseline)
    within["results"][0]["refit_speedup"] *= 0.85  # 15% — inside tolerance
    assert compare(baseline, within) == [], (
        "selftest: 15% wobble must pass at 20% tolerance"
    )

    lower = {
        "bench": "streaming",
        "results": [
            {
                "workload": "DS",
                "mode": "certify_once",
                "certifier": "SAMP",
                "shards": 4,
                "order": "shuffled",
                "pairs": 20000,
                "cost_ratio": 1.0,
                "reused_answers": 0,
                "identical_labels": True,
            }
        ],
    }
    worse = copy.deepcopy(lower)
    worse["results"][0]["cost_ratio"] = 1.3
    assert compare(lower, worse), (
        "selftest: lower-better field rising 30% must be rejected"
    )
    flipped = copy.deepcopy(lower)
    flipped["results"][0]["identical_labels"] = False
    assert compare(lower, flipped), (
        "selftest: exact field flip must be rejected"
    )

    serving = {
        "bench": "serving",
        "results": [
            {
                "workload": "AB",
                "pairs": 60000,
                "shards": 16,
                "readers": 4,
                "lookups_per_sec": 6.0e7,
                "mutate_over_sync": 2.0,
                "drained_equals_synchronous": True,
                "snapshots_consistent": True,
            }
        ],
    }
    assert compare(serving, copy.deepcopy(serving)) == [], (
        "selftest: clean serving run must pass"
    )
    slow_serving = copy.deepcopy(serving)
    slow_serving["results"][0]["mutate_over_sync"] *= 1.25
    assert compare(serving, slow_serving), (
        "selftest: serving write-side slowdown must be rejected"
    )
    no_ratio = copy.deepcopy(serving)
    del no_ratio["results"][0]["mutate_over_sync"]
    assert compare(serving, no_ratio), (
        "selftest: a serving row without mutate_over_sync must be rejected"
    )

    entities = {
        "bench": "entities",
        "results": [
            {
                "pairs": 1000000,
                "records": 30000,
                "entities": 10000,
                "cluster_mpairs_per_sec": 20.0,
                "repair_ms": 400.0,
                "disagreements_before": 2000,
                "disagreements_after": 100,
                "exact_recovery": True,
                "repaired_transitive": True,
                "thread_invariant": True,
            }
        ],
    }
    drifted = copy.deepcopy(entities)
    drifted["results"][0]["disagreements_after"] = 101
    assert compare(entities, drifted), (
        "selftest: entity determinism drift must be rejected"
    )
    assert compare(entities, copy.deepcopy(entities)) == [], (
        "selftest: clean entities run must pass"
    )
    slow_repair = copy.deepcopy(entities)
    slow_repair["results"][0]["repair_ms"] *= 1.25  # injected 25% slowdown
    assert compare(entities, slow_repair), (
        "selftest: entity repair slowdown must be rejected"
    )

    crowd = {
        "bench": "crowd",
        "results": [
            {
                "workload": "ENT",
                "certifier": "SAMP",
                "pairs": 27218,
                "inferred_fraction": 0.35,
                "task_reduction": 0.93,
                "tasks_le_questions": True,
                "certified": True,
                "thread_invariant": True,
            },
            {
                "workload": "DS",
                "certifier": "RISK",
                "pairs": 20000,
                "inferred_fraction": 0.0,
                "task_reduction": 0.89,
                "tasks_le_questions": True,
                "certified": True,
                "thread_invariant": True,
            },
        ],
    }
    assert compare(crowd, copy.deepcopy(crowd)) == [], (
        "selftest: clean crowd run must pass"
    )
    less_inferred = copy.deepcopy(crowd)
    less_inferred["results"][0]["inferred_fraction"] *= 0.75  # 25% loss
    assert compare(crowd, less_inferred), (
        "selftest: inferred-fraction regression must be rejected"
    )
    uncertified = copy.deepcopy(crowd)
    uncertified["results"][1]["certified"] = False
    assert compare(crowd, uncertified), (
        "selftest: guarantee flag flip must be rejected"
    )

    paper = {
        "bench": "paper",
        "results": [
            {
                "preset": "AB",
                "optimizer": "SAMP",
                "alpha": 0.9,
                "theta": 0.9,
                "runs": 20,
                "met": 20,
                "band_gap": 0.106,
                "order_gap": 0.2197,
            }
        ],
    }
    assert compare(paper, copy.deepcopy(paper)) == [], (
        "selftest: an equal gap must pass"
    )
    for field in ("band_gap", "order_gap"):
        grown = copy.deepcopy(paper)
        grown["results"][0][field] += 1e-6
        assert compare(paper, grown), (
            "selftest: a grown %s must be rejected" % field
        )
        shrunk = copy.deepcopy(paper)
        shrunk["results"][0][field] = 0.0
        assert compare(paper, shrunk) == [], (
            "selftest: a shrunk %s must pass" % field
        )
    fewer_met = copy.deepcopy(paper)
    fewer_met["results"][0]["met"] = 19
    assert compare(paper, fewer_met), (
        "selftest: a changed met count must be rejected"
    )

    print("selftest OK: gate rejects injected regressions and passes clean runs")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_*.json")
    parser.add_argument("--candidate", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="verify the gate fails on an injected 25%% regression",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required")

    violations = compare(load(args.baseline), load(args.candidate))
    if violations:
        print("PERFORMANCE REGRESSION GATE FAILED (%d violation%s):"
              % (len(violations), "s" if len(violations) != 1 else ""))
        for v in violations:
            print("  - " + v)
        return 1
    print(
        "perf gate OK: %s within %.0f%% of baseline %s"
        % (args.candidate, TOLERANCE * 100, args.baseline)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
