#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Run from the repository root. Runs perfbench/run.py once per seed for each
workload (all of BENCHMARK.json's by default) with BENCHMARK.json's
run_seconds, then prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound. Raw values go to .bench_out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(".bench_out", "spread.json"),
                        help="where to write every value with its median and quartiles")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {}
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        raw[workload] = {}
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, q3 = (statistics.quantiles(vals, n=4)[::2] if len(vals) > 1 else (med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:32s} median {med:14.6g}  spread {spread:8.4f}  bound {bound}{flag}")
            raw[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                   "values": vals}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                   "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": raw},
                  f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
