#!/usr/bin/env python3
"""Runs one workload under several seeds and prints, for each end-to-end
metric, the median of the runs and the quartile spread as a share of it
(quartiles as Python's statistics.quantiles(values, n=4) gives them),
beside the metric's bound from BENCHMARK.json.

    python3 costbench/spread.py --workload W [--runs 10] [--first-seed 1]
                                [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", args.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
            return 1
        res = json.loads(p.stdout.splitlines()[-1])
        for k, v in res["metrics"].items():
            values[k].append(v["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in res["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:>16}: median {med:.6g} {m['unit']}, spread {spread:.3f} "
              f"(bound {m['bound']}, a third of it {m['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
