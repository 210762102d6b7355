#!/usr/bin/env python3
"""Bench-regression guard for perf_report and tournament reports.

A report holds one JSON row per line, `{"name", "unit", "value", "kind"}`,
written by `freqdedup_bench::output::Rows` (DESIGN.md §6). The fresh report
is compared with the committed baseline row by row, by the row's kind:

* higher — fails when the fresh value falls more than THRESHOLD below the
  baseline;
* lower  — fails when baseline / fresh falls below 1 - THRESHOLD;
* exact  — fails unless the fresh value equals the baseline (deterministic
  results such as leakage rates, and the run's scale, so reports of
  different size never compare);
* flag   — fails unless the fresh value is true;
* info   — printed, never fails.

A higher, lower, exact or flag row missing from the fresh report fails.
Rows only in the fresh report are new: a flag among them must still be
true, the others are printed.

THRESHOLD is deliberately loose because CI runners and the recording
machine are different hardware generations; the guard is meant to catch
order-of-magnitude regressions (an accidental O(n^2), a lost fast path),
not single-digit drift.

Usage:
    python3 ci/bench_guard.py --baseline BENCH_attack.json --fresh fresh.json
"""

import argparse
import json
import sys

THRESHOLD = 0.30


def load(path):
    """The rows of the report at `path`."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check(kind, base, new):
    """Why a row with baseline `base` and fresh `new` fails, or None.

    `base` is None for a row only in the fresh report, `new` for a row
    missing from it.
    """
    if new is None:
        return None if kind == "info" else "missing from the fresh report"
    if kind == "flag":
        return None if new is True else "flag is not true"
    if base is None or kind == "info":
        return None
    if kind == "exact":
        return None if new == base else "differs from the baseline"
    if kind == "higher" and new < base * (1 - THRESHOLD):
        return f"fell more than {THRESHOLD:.0%} below the baseline"
    if kind == "lower" and new * (1 - THRESHOLD) > base:
        return f"rose past baseline / {1 - THRESHOLD:.2f}"
    return None


def compare(baseline, fresh):
    """Prints the row-by-row comparison; returns the failure messages."""
    base_by_name = {row["name"]: row for row in baseline}
    fresh_by_name = {row["name"]: row for row in fresh}
    names = list(base_by_name) + [n for n in fresh_by_name if n not in base_by_name]
    failures = []
    print(f"{'row':<44} {'kind':<6} {'baseline':>12} {'fresh':>12}")
    for name in names:
        base_row, new_row = base_by_name.get(name), fresh_by_name.get(name)
        kind = (base_row or new_row)["kind"]
        base = base_row["value"] if base_row else None
        new = new_row["value"] if new_row else None
        reason = check(kind, base, new)
        note = f"  <-- FAIL: {reason}" if reason else ""
        print(f"{name:<44} {kind:<6} {str(base):>12} {str(new):>12}{note}")
        if reason:
            failures.append(f"{name}: {reason}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed BENCH_attack.json")
    ap.add_argument("--fresh", required=True, help="freshly produced report")
    args = ap.parse_args()

    failures = compare(load(args.baseline), load(args.fresh))
    if failures:
        for failure in failures:
            print(f"bench_guard: FAIL — {failure}")
        return 1
    print("bench_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
