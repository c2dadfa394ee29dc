#!/usr/bin/env python3
"""Steadiness check of the tpdb benchmark.

Repeats each workload with consecutive seeds, each run in a fresh process
through run.py, and prints every metric's median and its quartile spread
(Q3 - Q1, as statistics.quantiles(values, n=4) gives them) as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged; any failed run, wrong output or
spread beyond the bound makes the exit code 1.

    python3 perfbench/steady.py --runs 10 --seed 100
    python3 perfbench/steady.py --workloads cold_rw --runs 5 --trace 1
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; run i uses seed + i")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.seed + i, args.seconds, args.trace)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.seed + i}: run failed or wrong")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}")
        print(f"  {'metric':34} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2 and median != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(median)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound:
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread >= bound / 3:
                    flag = "  above bound/3"
            print(f"  {name:34} {median:12.6g} {spread:8.3f} "
                  f"{bound if bound else '-':>6}{flag}")
            if flag:
                print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
