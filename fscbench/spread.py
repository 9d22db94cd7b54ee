#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each named
workload and prints, per metric, the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound.  Run from the repository root:

    python3 fscbench/spread.py --workloads serve-ingest --seeds 1-10

``--bin PATH`` runs an already built benchmark binary instead of the command.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--bin")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            run = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({run.returncode}):\n{run.stderr}")
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(seeds_of(args.seeds))} runs of {args.seconds} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            if name != "setup_s" and bound:
                worst = max(worst, share / bound)
            print(f"  {name:<24} median {med:>14.6g}  IQR/median {share:7.2%}  bound {bound:.0%}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    print(f"worst spread / bound (setup_s excepted): {worst:.2f}")


if __name__ == "__main__":
    main()
