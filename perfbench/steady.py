#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and print, for
every end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound in
BENCHMARK.json.  With --sets 2 it makes two sets of runs and also prints
how far the second median moved from the first, against the bound, and
whether the share of failed operations is the same in both.  The first
set runs on seeds 1 to --runs, the second on the next --runs seeds.

Run from the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 1]
                                [--seconds S]

Exits non-zero when a spread or a median shift is over its bound, when
the failed shares differ, or when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), wall


def stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                r, wall = run_once(workload, seed, args.seconds)
                results.append(r)
                print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                      f"{r['failed']}/{r['attempted']} failed, " +
                      ", ".join(f"{k} {v['value']:.6g}" for k, v in r["metrics"].items()),
                      file=sys.stderr)
            sets.append(results)
        print(f"\n{workload}  ({args.runs} runs x {args.sets} set(s), {args.seconds} s each)")
        print(f"  {'metric':22s} {'unit':>10s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            meds = []
            for results in sets:
                med, q1, q3 = stats([r["metrics"][name]["value"] for r in results])
                spread = (q3 - q1) / med
                meds.append(med)
                flag = "" if spread <= bound / 3 else \
                    ("  over bound/3" if spread <= bound else "  OVER BOUND")
                if spread > bound:
                    ok = False
                unit = results[0]["metrics"][name]["unit"]
                print(f"  {name:22s} {unit:>10s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {bound:6.3f}{flag}")
            if len(meds) == 2:
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = (meds[1] - meds[0]) / meds[0] * (1 if better == "lower" else -1)
                flag = "" if worse <= bound else "  SHIFT OVER BOUND"
                ok = ok and worse <= bound
                print(f"  {'':22s} second set worse by {worse:+.4f}{flag}")
        counts = [(sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)) for rs in sets]
        shares = [f / a for a, f in counts]
        print("  attempted/failed per set: " + ", ".join(f"{a}/{f}" for a, f in counts)
              + f"; failed share {shares}")
        if len(set(shares)) > 1 or not all(r["correct"] for rs in sets for r in rs):
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
