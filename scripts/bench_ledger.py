#!/usr/bin/env python3
"""Appends benchmark rows to a perf ledger (a committed BENCH_*.json file).

    python3 scripts/bench_ledger.py --label change --seed 31 --seconds 15 \
        --out BENCH_<n>.json [--repo DIR] [--workloads kv_small_get,...]

Runs `perfbench/run.py` once for every workload named in the checkout's
BENCHMARK.json (or the `--workloads` subset), from the root of `--repo`
(default: this script's repository), and appends one row per workload to
the ledger: the label, workload, seed, seconds, and the run's `info` and
result objects exactly as printed. The ledger is created when missing.

Comparing two trees means calling the script once per tree with different
labels and `--repo` pointing at a checkout of each, alternating the calls so
that host load drifts hit both sides alike; every call appends, so the rows
of all pairs end up in one file.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_workload(repo, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=repo, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    info = json.loads(lines[-2]).get("info", {})
    result = json.loads(lines[-1])
    return info, result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="ledger JSON file to append to")
    parser.add_argument("--repo", default=os.path.dirname(HERE),
                        help="checkout to benchmark (default: this repository)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset of BENCHMARK.json's workloads")
    args = parser.parse_args()

    repo = os.path.abspath(args.repo)
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        declared = [w["name"] for w in json.load(f)["workloads"]]
    workloads = declared
    if args.workloads:
        workloads = args.workloads.split(",")
        unknown = [w for w in workloads if w not in declared]
        if unknown:
            print(f"bench_ledger: not in BENCHMARK.json: {', '.join(unknown)}", file=sys.stderr)
            return 2

    ledger = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            ledger = json.load(f)

    status = 0
    for workload in workloads:
        info, result, code = run_workload(repo, workload, args.seed, args.seconds)
        status = status or code
        ledger["rows"].append({"label": args.label, "workload": workload, "seed": args.seed,
                               "seconds": args.seconds, "info": info, "result": result})
        host = result["metrics"]["host_us_per_call"]["value"]
        print(f"{args.label} {workload}: host_us_per_call {host:.3f} digest {info.get('digest')}",
              file=sys.stderr)
        # Rewritten after every run, so an interrupted sweep keeps its rows.
        with open(args.out, "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
