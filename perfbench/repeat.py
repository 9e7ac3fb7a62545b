#!/usr/bin/env python3
"""Repeat mode: run the benchmark N times per workload and print, for each
metric, its median and quartiles and the spread between the quartiles as a
share of the median, next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10 --seed 100
    python3 perfbench/repeat.py --runs 10 --sets 2 --seed 100
    python3 perfbench/repeat.py --runs 5 --workloads chat_burst --trace 1

Runs are interleaved: run i of every set and every workload comes before
run i + 1. Run i of set s uses seed `--seed + s * --runs + i`, so no two
runs share a seed. Spreads are computed exactly as
`statistics.quantiles(values, n=4)` gives the quartiles; a spread above a
third of its bound is flagged, and one above the bound itself is flagged
louder. With `--sets 2`, each workload's per-metric medians of the two
sets are compared as well: the second set's median may not be worse than
the first's by more than the bound. Exits 1 if a run fails, reports
`correct: false`, or the failed share differs between runs of a workload.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {p.returncode}, no result", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    # values[s][w][metric] -> one value per run
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    failed_share = {w: set() for w in workloads}
    ok = True
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = args.seed + s * args.runs + i
                r = run_once(spec, w, seed, args.seconds, args.trace)
                if r is None:
                    ok = False
                    continue
                ok &= r["correct"]
                failed_share[w].add(r["failed"] / r["attempted"])
                for name, m in r["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                print(f"set {s} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
    for w in workloads:
        if len(failed_share[w]) > 1:
            ok = False
        print(f"\n{w}  (failed share per run: {sorted(failed_share[w])})")
        for s in range(args.sets):
            print(f"  set {s}")
            print(f"  {'metric':<28} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for name, xs in values[s][w].items():
                if len(xs) < 2:
                    continue
                q1, med, q3, spread = quartiles(xs)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and spread > bound:
                    flag = "  <-- ABOVE BOUND"
                elif bound is not None and spread > bound / 3:
                    flag = "  <-- above bound/3"
                print(f"  {name:<28} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} {spread:>8.3f} "
                      f"{bound if bound is not None else '-':>6}{flag}")
        if args.sets < 2:
            continue
        print("  second set's median against the first's (positive = worse)")
        for name, xs in values[0][w].items():
            ys = values[1][w].get(name, [])
            if len(xs) < 2 or len(ys) < 2:
                continue
            m0, m1 = statistics.median(xs), statistics.median(ys)
            change = (m1 - m0) / m0 if m0 else float("nan")
            worse = change if better[name] == "lower" else -change
            bound = bounds.get(name)
            flag = "  <-- ABOVE BOUND" if bound is not None and worse > bound else ""
            print(f"  {name:<28} {m0:>12.4f} {m1:>12.4f} {worse:>+8.3f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
