#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
as a share of their median, beside the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workloads paper-churn --seeds 5

Runs are sequential, so they do not compete for the CPU.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect: {lines[-1]}", file=sys.stderr)
                ok = False
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        print(f"{name}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in metrics:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {m['name']:24} median {med:14.4f}  spread {spread:7.4f}  bound {bound}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
