#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the benchmark and the repository
libraries it links from source into .bench_build/ (CMake), runs one workload
and prints its result object as the last line of standard output: untraced
runs carry the end-to-end metrics of BENCHMARK.json, traced runs its
per-layer metrics. BENCHMARK.json is the one list of metric names and units:
the workload reports values by name, and this script adds the units and
reports 0 for a per-layer metric of a layer the workload does not exercise.
`--workload all` runs every workload and prints each metric by name with its
unit. Exits non-zero when the build fails, an output check fails, or the
workload reports a metric BENCHMARK.json does not list or misses an
end-to-end metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
# A run measures for --seconds; this covers its warm-up, set-ups and drain.
RUN_OVERHEAD_S = 120
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(BUILD_JOBS), "--target"]
    return subprocess.run(cmd + targets, stdout=sys.stderr,
                          cwd=ROOT).returncode == 0


def spec_metrics(trace):
    """BENCHMARK.json and its metric list for an untraced or traced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, spec["per_layer" if trace else "end_to_end"]


def with_units(values, trace):
    """Turns the workload's {name: value} into the result's metrics, in
    BENCHMARK.json's order with its units; None if the names do not fit."""
    _, listed = spec_metrics(trace)
    names = [m["name"] for m in listed]
    extra = sorted(set(values) - set(names))
    missing = [] if trace else sorted(set(names) - set(values))
    if extra or missing:
        log(f"result does not match BENCHMARK.json "
            f"(missing {missing}, not listed {extra})")
        return None
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in listed}


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    timeout = seconds + RUN_OVERHEAD_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout:g} s "
            f"(--seconds {seconds:g} plus {RUN_OVERHEAD_S} s)")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: exited {proc.returncode} without a result")
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON: {lines[-1]!r}")
        return 1, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: malformed result {sorted(result)}")
        return 1, None
    result["metrics"] = with_units(result["metrics"], trace)
    if result["metrics"] is None:
        return 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        log("build failed")
        return 2

    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    spec, _ = spec_metrics(args.trace)
    results = {}
    status = 0
    for w in spec["workloads"]:
        code, result = run_workload(w["name"], args.seed, args.seconds,
                                    args.trace)
        if result is None or code != 0 or not result["correct"]:
            status = 1
        if result is None:
            continue
        results[w["name"]] = result
        print(f"{w['name']}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
