#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads fanout_clean,replan_live --seeds 10

For every end-to-end metric (or per-layer metric, with --trace 1) it prints
the median over the runs and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json. A run that fails or reports
"correct": false makes the script exit non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="0 = run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(w, seed, seconds, args.trace)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({args.seeds} seeds, {seconds} s):")
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:34s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
            if flag:
                print("      by seed: " + " ".join(f"{v:.4g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
