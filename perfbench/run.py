#!/usr/bin/env python3
"""Builds the sqlflow benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload served_point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke --workload all      # quick harness check
    python3 perfbench/run.py --self-test                 # percentile / op-mix tests

The first run configures and compiles the repository's libraries and the
benchmark binary into .bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only
what changed. Build output goes to stderr, so the last line on stdout is
the JSON result.

An untraced run splits --seconds over PROCESSES benchmark processes,
started one after another with the same inputs, and reports each
metric's median over them. On a shared VM a process keeps about one
speed for its whole life and processes differ by up to 40%, so a run
measured in one process mostly measured that draw. A traced or --smoke
run is one process.

The exit code is 1 when a correctness oracle failed; 2 for bad
arguments, a missing source tree or a failed build; and, with no result
line, the code of a process that ended without a result (3 when its
set-up failed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["served_point", "durable_writes", "order_workflow",
             "process_analytics"]
PROCESSES = 5


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sqlflow sources (src/) next to perfbench/; "
             "run from the root of a full checkout")
    cmake_dir = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", cmake_dir])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench")


def run_process(binary, args, workload, seconds):
    """Runs one benchmark process: (exit code, stdout lines, result)."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir(), "work")]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, lines, result


def median_result(results):
    """Each metric's median over the processes, printed beside the
    per-process values; the counts are summed."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
        print("%-24s %14.4f %-5s median of %s" % (
            name, metrics[name]["value"], first["unit"],
            " ".join("%.6g" % v for v in values)))
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_workload(binary, args, workload):
    """Runs one workload and prints its output, the result line last.
    Returns (exit code, result); when a process ended without a result,
    the result is None and no result line is printed."""
    processes = 1 if args.trace or args.smoke else PROCESSES
    results = []
    status = 0
    for i in range(processes):
        code, lines, result = run_process(binary, args, workload,
                                          args.seconds / processes)
        prefix = "# [%d/%d] " % (i + 1, processes) if processes > 1 else ""
        for line in (lines if result is None else lines[:-1]):
            print(prefix + line)
        if result is None:
            sys.stdout.flush()
            return code or 3, None
        results.append(result)
        status = status or code
    result = results[0] if processes == 1 else median_result(results)
    print(json.dumps(result), flush=True)
    return status, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small data, short phases: checks the harness")
    parser.add_argument("--self-test", action="store_true",
                        help="run the percentile and op-mix self-tests")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 2)

    binary = build()
    if args.self_test:
        return subprocess.run([binary, "--self-test"], cwd=ROOT).returncode
    if args.workload != "all":
        return run_workload(binary, args, args.workload)[0]

    # Every workload in turn; the last line summarizes them all.
    results = {}
    status = 0
    for workload in WORKLOADS:
        print("== " + workload, flush=True)
        code, result = run_workload(binary, args, workload)
        results[workload] = result or {"correct": False, "attempted": 0,
                                       "failed": 0, "metrics": {}}
        status = status or code
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
