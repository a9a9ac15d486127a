#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` files of ``bench.py`` runs (one
workload or all five per file), made in alternating order: parent,
change, parent, change, ...  Within each workload the i-th parent run
is paired with the i-th change run (files in name order), and a pair
must use one seed.  One row is printed per (workload, metric):

* ``gain`` -- the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``REGRESSION`` -- the change's median is worse than the parent's by
  more than the metric's ``bound`` in BENCHMARK.json;
* ``unresolved`` -- the parent's or the change's own spread (IQR over
  median) exceeds the bound, and not every change run beats every
  parent run, so "no worse" cannot be claimed;
* ``within bound`` -- an end-to-end metric that is none of the above;
* ``loss`` / ``no claim`` -- per-layer metrics, which have no bound: a
  loss is the mirror of a gain.  A loss on one of ``USER_FACING``, the
  workload-specific times a user sees, reads ``LOSS``;
* ``identical`` / ``CHANGED`` -- simulated outputs (``sim_*`` metrics and
  the output digest), which must not move at all within a pair.

Fewer than 10 pairs never yield a gain or a loss.  The exit code is 1
when any row is a regression, a ``LOSS`` or a changed simulated output,
or any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Per-layer metrics a user of one workload sees directly.  They exist on
#: some workloads only, so BENCHMARK.json cannot bound them; a loss on
#: any of them fails the comparison instead.
USER_FACING = (
    "profile_s", "production_s", "cells_per_s", "cycle_s",
    "get_p50_ms", "get_p90_ms", "post_p50_ms",
)


def load_runs(directory: str) -> Dict[str, List[Dict]]:
    """workload -> its single-workload results, in file-name order."""
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise SystemExit(f"compare: no *.json result files in {directory}")
    runs: Dict[str, List[Dict]] = {}
    for path in files:
        with open(path) as handle:
            payload = json.load(handle)
        for run in payload["runs"] if "runs" in payload else [payload]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    parent: List[float], change: List[float], better: str, bound: Optional[float]
) -> Tuple[str, int]:
    """(verdict, pairs the change wins) for one (workload, metric)."""
    pairs = len(parent)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    moved = abs(cm - pm) > p3 - p1
    enough = pairs >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * pairs and moved:
        return "gain", wins
    if bound is None:
        if enough and losses >= WIN_SHARE * pairs and moved:
            return "loss", wins
        return "no claim", wins
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved", wins
    if pm and sign * (pm - cm) / pm > bound:
        return "REGRESSION", wins
    return "within bound", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    entries = [*spec["end_to_end"], *spec["per_layer"]]
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)
    failing = False

    print(f"{'workload':<19} {'metric':<34} {'unit':<9} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'delta':>7} {'wins':>7}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        pairs = list(zip(parent_runs[workload], change_runs[workload]))
        for p_run, c_run in pairs:
            if (p_run["seed"], p_run["trace"]) != (c_run["seed"], c_run["trace"]):
                print(f"{workload}: a pair mixes (seed, trace) {p_run['seed'], p_run['trace']}"
                      f" and {c_run['seed'], c_run['trace']}")
                failing = True
            for side, run in (("parent", p_run), ("change", c_run)):
                if not run["correct"] or run["failed"]:
                    failing = True
                    print(f"{workload}: {side} run (seed {run['seed']}) failed "
                          f"{run['failed']}/{run['attempted']} ops: {run['problems'][:3]}")
        for entry in entries:
            name = entry["name"]
            if not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
                continue
            parent = [float(p["metrics"][name]) for p, _ in pairs]
            change = [float(c["metrics"][name]) for _, c in pairs]
            if name.startswith("sim_"):
                result, wins = ("identical" if parent == change else "CHANGED"), 0
            else:
                result, wins = verdict(parent, change, entry["better"], entry.get("bound"))
                if result == "loss" and name in USER_FACING:
                    result = "LOSS"
                if len(pairs) < MIN_PAIRS:
                    result += f" ({len(pairs)} < {MIN_PAIRS} pairs)"
            failing |= result.startswith(("REGRESSION", "LOSS", "CHANGED"))
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            delta = f"{100.0 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
            print(f"{workload:<19} {name:<34} {entry['unit']:<9} "
                  f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':<32} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<32} "
                  f"{delta:>7} {f'{wins}/{len(pairs)}':>7}  {result}")
        same = all(p["output_digest"] == c["output_digest"] for p, c in pairs)
        failing |= not same
        print(f"{workload:<19} {'output_digest':<34} {'identical' if same else 'CHANGED'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
