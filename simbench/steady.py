#!/usr/bin/env python3
"""Steadiness evidence for the simulator benchmark.

Runs each workload several times, each time with another seed, and
prints per end-to-end metric the median, the quartiles and the spread
(interquartile range over median) against the bound BENCHMARK.json
fixes for it. Run from the repository root:

    python3 simbench/steady.py                 # 10 runs of every workload
    python3 simbench/steady.py --runs 5 --workload serve-warm

Every metric, setup_s included, is held to its bound; a spread above a
third of its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (out.returncode,
                                                      " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: " + " ".join(cmd))
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(name, seed, args.seconds, 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print("  %s seed %d done" % (name, seed), file=sys.stderr,
                  flush=True)
        print("%s: %d runs, seeds %d..%d, %d s each" % (
            name, args.runs, args.first_seed,
            args.first_seed + args.runs - 1, args.seconds))
        print("  %-14s %12s %12s %12s %8s %7s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for m, spec in bounds.items():
            q1, med, q3 = statistics.quantiles(values[m], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            worst = max(worst, spread / bound)
            if spread <= bound / 3:
                verdict = "ok (< bound/3)"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %7.3f  %s %s" % (
                m, q1, med, q3, spread, bound, verdict, spec["unit"]))
            print("  %14s %s" % ("", " ".join("%.4g" % v for v in values[m])))
        sys.stdout.flush()
    print("largest spread/bound: %.3f" % worst)
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
