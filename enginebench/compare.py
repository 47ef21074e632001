#!/usr/bin/env python3
"""Compares two sets of engine benchmark results.

  python3 enginebench/compare.py A/ B/

A holds the parent's results, B the change's: untraced result JSON files
written by run.py (--reps, or single runs sharing an --out-dir). Runs are
paired by seed. For each workload and end-to-end metric in BENCHMARK.json it
prints both sides' medians and quartiles and one verdict:

  regressed   B's median is worse than A's by more than the metric's bound
  improved    B wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than A's quartile spread
  unresolved  either side's quartile spread exceeds the bound, as a share
              of its median
  unchanged   otherwise

Exits 1 if any metric regressed or any run failed its correctness checks.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: result}} for every untraced result in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            try:
                result = json.load(f)
            except ValueError:
                continue
        if result.get("bench") != "engine_bench" or result.get("traced"):
            continue
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(spec, a_values, b_values, pairs):
    higher = spec["better"] == "higher"
    bound = spec["bound"]
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_q1, b_med, b_q3 = quartiles(b_values)
    worse_by = (a_med - b_med if higher else b_med - a_med) / abs(a_med)
    if worse_by > bound:
        return "regressed"
    wins = sum(1 for a, b in pairs if (b > a if higher else b < a))
    if (pairs and wins >= 0.9 * len(pairs) and worse_by < 0 and
            abs(b_med - a_med) > a_q3 - a_q1):
        return "improved"
    if (a_q3 - a_q1) / abs(a_med) > bound or (b_q3 - b_q1) / abs(b_med) > bound:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        config = json.load(f)
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    print(f"{'workload':14} {'metric':20} {'A median [q1 q3]':>34} "
          f"{'B median [q1 q3]':>34} {'unit':8} {'change':>8}  verdict")
    for workload in [w["name"] for w in config["workloads"]]:
        a, b = a_runs.get(workload, {}), b_runs.get(workload, {})
        if not a or not b:
            print(f"{workload:14} missing from {'A' if not a else 'B'}")
            status = 1
            continue
        for side, runs in (("A", a), ("B", b)):
            bad = [seed for seed, r in runs.items() if not r["correct"]]
            if bad:
                print(f"{workload:14} {side} seeds {bad} failed correctness")
                status = 1
        seeds = sorted(set(a) & set(b))
        for spec in config["end_to_end"]:
            name = spec["name"]
            a_values = [r["metrics"][name]["value"] for r in a.values()]
            b_values = [r["metrics"][name]["value"] for r in b.values()]
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in seeds]
            result = verdict(spec, a_values, b_values, pairs)
            if result == "regressed":
                status = 1
            a_q1, a_med, a_q3 = quartiles(a_values)
            b_q1, b_med, b_q3 = quartiles(b_values)
            change = (b_med - a_med) / abs(a_med) * 100
            print(f"{workload:14} {name:20} "
                  f"{f'{a_med:.6g} [{a_q1:.6g} {a_q3:.6g}]':>34} "
                  f"{f'{b_med:.6g} [{b_q1:.6g} {b_q3:.6g}]':>34} "
                  f"{spec['unit']:8} {change:+7.2f}%  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
