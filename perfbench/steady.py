#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one commit agree?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Runs two sets of `perfbench/run.py --trace 0` runs per workload, each set
with seeds 1..--runs, and prints for every end-to-end metric of
BENCHMARK.json each set's median and quartiles (Python's
statistics.quantiles, n=4), the spread (q3 - q1) / median, and whether the
sets agree: every spread within the metric's bound, the two medians within
the bound of each other, and the same share of failed ops in both sets.
Exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    ok = True
    for workload in workloads:
        sets = [[run_once(workload, seed, seconds)
                 for seed in range(1, args.runs + 1)] for _ in range(2)]
        print(f"== {workload} ({args.runs} runs x 2 sets, {seconds} s each)")
        shares = []
        for runs in sets:
            if not all(r["correct"] for r in runs):
                print("  a run reported correct=false")
                ok = False
            for r in runs:
                missing = {m["name"] for m in metrics} - set(r["metrics"])
                if missing:
                    print(f"  metrics missing: {sorted(missing)}")
                    ok = False
            shares.append(sum(r["failed"] for r in runs) /
                          sum(r["attempted"] for r in runs))
        if len(set(shares)) != 1:
            print(f"  failed-op shares differ: {shares}")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for runs in sets:
                q1, q2, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(q2)
                steady = spread <= bound
                ok = ok and steady
                cols.append(f"median {q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                            f"spread {spread:.4f}{'' if steady else ' (!)'}")
            drift = abs(medians[1] - medians[0]) / medians[0]
            agree = drift <= bound
            ok = ok and agree
            print(f"  {name:<13} bound {bound:<5} " + " | ".join(cols) +
                  f" | drift {drift:.4f} {'agree' if agree else 'DISAGREE'}",
                  flush=True)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
