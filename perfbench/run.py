#!/usr/bin/env python3
"""Builds and runs the benchmark of record from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|tiny]

The benchmark is its own CMake project (perfbench/CMakeLists.txt) built on
the library sources of the checkout, in $CARGO_TARGET_DIR or .bench_build.
Build output goes to stderr; the last line of stdout is the run's JSON
result. Exits nonzero, printing no result, when the checkout holds no
library sources, the build fails, or a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def check_spec():
    """BENCHMARK.json must state what workloads.json defines."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return spec
    with open(path) as f:
        bench = json.load(f)
    want_workloads = [{"name": n, "why": w["why"]}
                      for n, w in spec["workloads"].items()]
    want_e2e = [{k: m[k] for k in ("name", "unit", "better", "bound")}
                for m in spec["end_to_end"] if m["gated"]]
    want_layers = [{k: m[k] for k in ("name", "unit", "better")}
                   for m in spec["per_layer"]]
    if bench.get("workloads") != want_workloads:
        fail("BENCHMARK.json workloads differ from perfbench/workloads.json")
    if bench.get("end_to_end") != want_e2e:
        fail("BENCHMARK.json end_to_end differs from perfbench/workloads.json")
    if bench.get("per_layer") != want_layers:
        fail("BENCHMARK.json per_layer differs from perfbench/workloads.json")
    return spec


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (src/CMakeLists.txt)")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    spec = check_spec()
    if args.workload not in spec["workloads"]:
        fail("unknown workload " + args.workload)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale,
           "--config", os.path.join(HERE, "workloads.json"),
           "--trace-dir", os.path.join(build_dir, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result (exit %d)" % proc.returncode)
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(proc.returncode or 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
