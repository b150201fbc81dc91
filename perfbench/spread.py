#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile
(statistics.quantiles, n=4) as a share of its median, next to the bound
BENCHMARK.json declares.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 dense-fw serve-hot
    python3 perfbench/spread.py --seeds 5 --first-seed 100   # every workload
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help=f"any of {', '.join(names)} (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--values", action="store_true", help="also print each seed's value")
    args = ap.parse_args()
    unknown = set(args.workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    worst = 0.0
    for workload in args.workloads or names:
        runs = [
            run_once(bench, workload, seed, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        print(f"## {workload}: {args.seeds} seeds from {args.first_seed}")
        for m in declared:
            values = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            note = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                note = f"bound {bound:.3f}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"{m['name']:32} median {med:14.6g} {m['unit']:12} spread {spread:7.4f}  {note}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in values))
    if args.trace == 0:
        print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
