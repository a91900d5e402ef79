#!/usr/bin/env python3
"""Repeat-and-report: runs workloads N times, one seed per run, and prints
each end-to-end metric's median and interquartile spread against the
benchmark's own bounds, so steadiness is shown and not assumed.

    python3 perfbench/repeat.py [--workloads a,b] [--runs 10] [--seconds 10]
                                [--first-seed 1] [--sets 1]

The spread is (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4). A gated metric is "steady" when its
spread is below a third of its bound and "over bound" when above the bound
(setup_s is judged by its medians only). With --sets 2 the whole series
runs twice on the same seeds and each metric's second median is compared
with the first. Exits nonzero when a run fails, a spread is over its
bound, or a second median is worse than the first by more than the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+\(n=(\d+)\)$")


def run_once(workload, seed, seconds):
    """One run: (gated metrics, all printed end-to-end metrics)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d): %s" %
                           (workload, seed, proc.returncode,
                            " | ".join(lines[-3:])))
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = float(m.group(2))
    return result, printed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.load(open(os.path.join(HERE, "workloads.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            series = {}
            for i in range(args.runs):
                seed = args.first_seed + i
                result, printed = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print("%s seed %d: %d of %d operations failed" %
                          (workload, seed, result["failed"],
                           result["attempted"]))
                    ok = False
                for name, value in printed.items():
                    series.setdefault(name, []).append(value)
            sets.append(series)
        print("\n%s: %d runs x %d set(s), %g s each, seeds %d..%d" %
              (workload, args.runs, args.sets, args.seconds, args.first_seed,
               args.first_seed + args.runs - 1))
        print("  %-16s %12s %12s %12s %8s %7s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name in sorted(sets[0]):
            med, q1, q3, sp = spread(sets[0][name])
            m = bounds.get(name, {})
            bound = m.get("bound")
            if bound is None or not m.get("gated", False):
                verdict = "reported" if bound is None else (
                    "steady" if sp <= bound / 3 else
                    "within bound" if sp <= bound else "over bound")
                verdict += " (not gated)"
            elif name == "setup_s":
                verdict = "medians only"
            else:
                verdict = ("steady" if sp <= bound / 3 else
                           "within bound" if sp <= bound else "OVER BOUND")
                ok = ok and sp <= bound
            if args.sets == 2 and bound and m.get("gated", False):
                med2 = statistics.median(sets[1][name])
                worse = (med2 - med) / med if med else 0.0
                if m["better"] == "higher":
                    worse = -worse
                verdict += "; second median %+.1f%%" % (100 * worse)
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
            print("  %-16s %12.6g %12.6g %12.6g %7.1f%% %7s  %s" %
                  (name, med, q1, q3, 100 * sp,
                   "-" if bound is None else "%g" % bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
