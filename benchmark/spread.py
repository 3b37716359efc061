#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

Run from the repository root:

    python3 benchmark/spread.py --workload grid-job --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median (the
spread BENCHMARK.json's bounds are compared against), computed with
statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range like 1-10 or list like 3,5,8")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None, help="defaults to BENCHMARK.json's run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: benchmark exited {proc.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: run not correct: {lines[-1]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{'metric':28} {'median':>12} {'iqr/median':>10} {'bound':>6}  n")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of the bound"
        print(f"{name:28} {med:12.6g} {spread:10.4f} {bound if bound is not None else '-':>6}  {len(xs)} {units[name]}{flag}")


if __name__ == "__main__":
    main()
