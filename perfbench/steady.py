#!/usr/bin/env python3
"""Steadiness check: run the benchmark ten times on one workload, each run
with its own seed, and print per metric the median, the quartiles and the
quartile spread as a share of the median, next to the metric's bound.

    python3 perfbench/steady.py --workload orders-f2 --first-seed 1000

Run from the repository root. Quartiles are Python's
`statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(RUNS):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    print(f"\n{args.workload}: {RUNS} runs")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6.2f}")


if __name__ == "__main__":
    main()
