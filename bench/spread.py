#!/usr/bin/env python3
"""Run the benchmark ten times per workload, each time with another seed,
and print for every end-to-end metric the distance between the first and
third quartile of its ten values as a share of their median — the spread
the driver holds against the metric's bound. Run it twice and the second
set of medians must not be worse than the first by more than the bound.

    python3 bench/spread.py [--first-seed N] [--runs 10] [--json out.json]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    everything = {}
    worst = 0.0
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        everything[workload] = values
        print(workload)
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:20s} median {med:14.6g}  spread {100 * spread:6.2f}%  bound {100 * bounds[name]:4.0f}%"
                  f"  spread/bound {share:5.2f}")
    if args.json:
        Path(args.json).write_text(json.dumps(everything, indent=1))
    print(f"worst spread/bound outside setup_s: {worst:.2f} (aim below 0.33)")


if __name__ == "__main__":
    main()
