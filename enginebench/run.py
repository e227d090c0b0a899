#!/usr/bin/env python3
"""Builds and runs the ivdb engine benchmark.

Run from the root of a checkout:

  python3 enginebench/run.py --workload escrow_hot --seed 1 --seconds 10 --trace 0
  python3 enginebench/run.py --self-test

The engine is compiled from ../src by enginebench/CMakeLists.txt into
$CARGO_TARGET_DIR/enginebench (default .bench_build/enginebench), the way the
`release` preset builds it. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; every metric it carries is
checked against BENCHMARK.json. The exit code is 0 only if the build, the run
and every output check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"enginebench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        fail("engine sources (src/) not found next to enginebench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "enginebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DIVDB_CHECKS=OFF"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "engine_bench")


def run_binary(binary, args):
    """Runs engine_bench; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"engine_bench {' '.join(args)} timed out")
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, expected):
    """Validates the result line; returns (result, problems)."""
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, ["last line is not JSON"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(names) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not finite")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    return result, problems


def run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    binary = build()
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    result, problems = check_result(lines, expected)
    for line in lines[:-1]:
        print(line)
    if result is None:
        fail(f"engine_bench exited {code}: {problems[0]}")
    if problems:
        result["correct"] = False
        for p in problems:
            print(f"enginebench: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def self_test():
    """Determinism of the seeded streams, a short run of every workload in
    both modes (every named metric present, finite, with its unit), and the
    durable_churn crash variant."""
    spec = load_spec()
    binary = build()
    failures = 0
    for flag in ["--self-test-streams", "--self-test-crash"]:
        code, lines = run_binary(binary, [flag, "--seed", "3"])
        for line in lines:
            print(line)
        failures += code != 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, lines = run_binary(binary, [
                "--workload", w["name"], "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--quick"])
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            result, problems = check_result(lines, expected)
            if code != 0 or (result and not result["correct"]):
                problems.append(f"exit {code}, correct="
                                f"{result and result['correct']}")
            if result and result["failed"] != 0:
                problems.append(f"{result['failed']} operations failed")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"run {w['name']:<18} trace={trace} "
                  f"{len(expected)} metrics: {status}")
            failures += bool(problems)
    print("self-test", "passed" if failures == 0 else f"FAILED ({failures})")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
