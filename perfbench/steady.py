#!/usr/bin/env python3
"""Steadiness check: run one workload several times and report spreads.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed 1]
                                [--seconds S]

Runs perfbench/run.py --runs times with seeds seed, seed+1, ... and
prints, for each end-to-end metric of BENCHMARK.json, the median, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles). A metric whose
spread exceeds its bound is flagged UNSTEADY; setup_s is reported but
not flagged, since only its median is compared between runs.

It then runs the first seed once more and compares the exact per-round
counts (windows, rows, cache hits and misses, spill bytes) of the two
runs with that seed: they must be identical, and every run must report
its own rounds as steady. Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("steady.py: run failed (seed %d)" % seed)
    lines = proc.stdout.strip().splitlines()
    counts = next((json.loads(l[len("counts: "):]) for l in lines
                   if l.startswith("counts: ")), None)
    return json.loads(lines[-1]), counts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        res, counts = run_once(args.workload, args.seed + i, seconds)
        results.append((res, counts))
        print("seed %d: %s failed %d/%d" % (
            args.seed + i,
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in res["metrics"].items()),
            res["failed"], res["attempted"]), flush=True)

    flagged = False
    print("%-12s %12s %12s %12s %8s %6s" % (
        "metric", "q1", "median", "q3", "spread", "bound"))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r, _ in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        mark = ""
        if name != "setup_s" and spread > bound:
            mark, flagged = "UNSTEADY", True
        print("%-12s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
            name, q1, med, q3, spread, bound, mark))

    shares = {r["failed"] / r["attempted"] for r, _ in results}
    if len(shares) > 1 or any(not r["correct"] for r, _ in results):
        print("failed share differs between runs, or a run is not correct")
        flagged = True

    _, again = run_once(args.workload, args.seed, seconds)
    first = results[0][1]
    if not all(c and c["steady"] for c in [again] + [c for _, c in results]):
        print("UNSTEADY counts: a run's rounds disagree")
        flagged = True
    elif first != again:
        print("UNSTEADY counts: seed %d gave %s then %s" % (
            args.seed, first, again))
        flagged = True
    else:
        print("counts repeat exactly for seed %d" % args.seed)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
