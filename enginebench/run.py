#!/usr/bin/env python3
"""Builds engine_bench from source and runs it.

One run, printing one JSON object as the last line of standard output with
every end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
that BENCHMARK.json names:

  python3 enginebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repetitions: each workload R times (default 5), each run in its own
process, with the workload order reversed on every other repetition;
repetition i uses seed N + i. Prints `workload metric median [q1 q3] unit`
and exits 1 if any run failed a correctness check.

  python3 enginebench/run.py --reps [R] [--seconds S] [--seed N]
                             [--out-dir DIR]

Smoke check (every workload at 1% scale for one second, traced; asserts the
oracle passed, every end-to-end metric was printed with its unit, and the
trace file parses with nested spans; no timing assertions):

  python3 enginebench/run.py --smoke [--binary PATH] [--out-dir DIR]

Result JSON files and trace files go to --out-dir (default
enginebench/results); the build goes to enginebench/build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / "build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"enginebench: {message}", file=sys.stderr)
    sys.exit(1)


def load_config():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "engine_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed, see {log_path}")
    return BUILD / "engine_bench"


def commit_id():
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
        return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_once(binary, workload, seed, seconds, traced, out_dir, rep=0,
             commit="unknown", scale=1.0):
    """Runs the binary once; returns (result dict, its standard output)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--scale={scale}", f"--out-dir={out_dir}",
           f"--rep={rep}", f"--commit={commit}"]
    tag = f"{workload}-seed{seed}-rep{rep}"
    if traced:
        cmd.append(f"--trace={out_dir / f'trace-{workload}.json'}")
        tag += "-trace"
    result_path = out_dir / f"{tag}.json"
    if result_path.exists():
        result_path.unlink()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    if proc.returncode not in (0, 1) or not result_path.is_file():
        print(proc.stdout, file=sys.stderr, end="")
        fail(f"{workload} seed {seed} exited with {proc.returncode} and no result")
    with open(result_path) as f:
        return json.load(f), proc.stdout


def select_metrics(result, specs):
    metrics = {}
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None or metric["unit"] != spec["unit"]:
            fail(f"{result['workload']}: metric {spec['name']} "
                 f"[{spec['unit']}] missing from the result")
        metrics[spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_trace(path):
    """Returns an error message, or None when every span nests in its parent."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as err:
        return f"trace {path} does not parse: {err}"
    if not events:
        return f"trace {path} holds no spans"
    by_id = {e["args"]["id"]: e for e in events}
    slack_us = 0.003  # ts and dur are each rounded to 1 ns
    for e in events:
        parent_id = e["args"]["parent"]
        if parent_id < 0:
            continue
        parent = by_id.get(parent_id)
        if parent is None or parent["tid"] != e["tid"]:
            return f"span {e['args']['id']} ({e['name']}) has no parent {parent_id}"
        if (e["ts"] + slack_us < parent["ts"] or
                e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + slack_us):
            return f"span {e['args']['id']} ({e['name']}) escapes its parent"
    return None


def driver_run(args, config):
    binary = build()
    traced = args.trace == 1
    result, stdout = run_once(binary, args.workload, args.seed, args.seconds,
                              traced, Path(args.out_dir), commit=commit_id())
    print(stdout, file=sys.stderr, end="")
    specs = config["per_layer"] if traced else config["end_to_end"]
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": select_metrics(result, specs)}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def reps_run(args, config):
    binary = build()
    workloads = [w["name"] for w in config["workloads"]]
    out_dir = Path(args.out_dir)
    commit = commit_id()
    results = {w: [] for w in workloads}
    all_correct = True
    for rep in range(args.reps):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result, _ = run_once(binary, workload, args.seed + rep, args.seconds,
                                 False, out_dir, rep, commit)
            results[workload].append(result)
            all_correct &= result["correct"]
            if not result["correct"]:
                print(f"{workload} rep {rep}: INCORRECT {result['violations']}",
                      file=sys.stderr)
    print(f"# commit {commit}, {args.reps} repetitions of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.reps - 1}, results in {out_dir}")
    for workload in workloads:
        for spec in config["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in results[workload]]
            q1, median, q3 = quartiles(values)
            print(f"{workload} {spec['name']} {median:.6g} [{q1:.6g} {q3:.6g}] "
                  f"{spec['unit']}")
    return 0 if all_correct else 1


def smoke_run(args, config):
    binary = Path(args.binary) if args.binary else build()
    out_dir = Path(args.out_dir)
    problems = []
    for workload in [w["name"] for w in config["workloads"]]:
        result, stdout = run_once(binary, workload, 1, 1, True, out_dir,
                                  scale=0.01)
        if not result["correct"]:
            problems.append(f"{workload}: oracle failed {result['violations']}")
        printed = set()
        for line in stdout.splitlines():
            fields = line.split()  # workload metric value unit
            if len(fields) == 4 and fields[0] == workload:
                printed.add((fields[1], fields[3]))
        for spec in config["end_to_end"]:
            if (spec["name"], spec["unit"]) not in printed:
                problems.append(f"{workload}: {spec['name']} [{spec['unit']}] "
                                "not printed")
        error = check_trace(out_dir / f"trace-{workload}.json")
        if error:
            problems.append(f"{workload}: {error}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("SMOKE FAILED" if problems else "SMOKE OK")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, nargs="?", const=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    parser.add_argument("--out-dir", default=str(BENCH / "results"))
    args = parser.parse_args()
    config = load_config()
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    if args.smoke:
        return smoke_run(args, config)
    if args.reps:
        return reps_run(args, config)
    if not args.workload:
        parser.error("one of --workload, --reps or --smoke is required")
    return driver_run(args, config)


if __name__ == "__main__":
    sys.exit(main())
