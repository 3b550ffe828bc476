#!/usr/bin/env python3
"""Appends benchmark rows to a perf ledger (a committed BENCH_*.json file).

    python3 scripts/bench_ledger.py --label change --seed 31 --seconds 15 \
        --out BENCH_<n>.json [--repo DIR] [--workloads kv_small_get,...] [--trace 1]
        [--hostwork 1]
    python3 scripts/bench_ledger.py summarize BENCH_<n>.json

Runs `perfbench/run.py` once for every workload named in the checkout's
BENCHMARK.json (or the `--workloads` subset), from the root of `--repo`
(default: this script's repository), and appends one row per workload to
the ledger: the label, workload, seed, seconds, trace flag, and the run's
`info` and result objects exactly as printed. The ledger is created when
missing. `--trace 1` runs the traced benchmark, whose result holds the
per-layer metrics instead of the end-to-end ones. `--hostwork 1` runs the
checkout's host-work counter driver (tools/hostwork/README.md) instead and
appends its counts per call (engine dispatches, FramePool frames, operator
new calls and bytes) under the row's `hostwork` key.

Comparing two trees means calling the script once per tree with different
labels and `--repo` pointing at a checkout of each, alternating the calls so
that host load drifts hit both sides alike; every call appends, so the rows
of all pairs end up in one file.

`summarize FILE` groups the rows by workload, seed and trace flag. For
every metric of BENCHMARK.json present in a group it prints each label's
median and quartiles, and how many pairs the later label won against the
first (the k-th row of one label pairs with the k-th row of the other; ties
count for neither). It flags every group whose labels disagree on the event
`digest` or `events` count, which a behaviour-preserving change must keep.
Hostwork rows form their own group per workload and seed: each counter is
printed per label with its exact delta from the first label, and a label
whose runs disagree on a counter is flagged, since the counts are exact.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
HOSTWORK_DIR = os.path.join(".bench_build", "hostwork")
HOSTWORK_COUNTERS = ("dispatches_per_call", "frames_per_call", "allocs_per_call",
                     "alloc_bytes_per_call")


def run_workload(repo, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    info = json.loads(lines[-2]).get("info", {})
    result = json.loads(lines[-1])
    return info, result, proc.returncode


def run_hostwork(repo, workload, seed, seconds):
    """Builds tools/hostwork in `repo` and returns its counts for one run."""
    build = os.path.join(repo, HOSTWORK_DIR)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(repo, "tools", "hostwork"), "-B", build,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "--target", "hostwork", "-j",
                    str(min(4, os.cpu_count() or 1))], stdout=sys.stderr, check=True)
    proc = subprocess.run([os.path.join(build, "hostwork"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["hostwork"]


def save(ledger, path):
    """Rewritten after every run, so an interrupted sweep keeps its rows."""
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")


def append_runs(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="ledger JSON file to append to")
    parser.add_argument("--repo", default=REPO,
                        help="checkout to benchmark (default: this repository)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the per-layer metrics (perfbench --trace 1)")
    parser.add_argument("--hostwork", type=int, choices=(0, 1), default=0,
                        help="1 appends host-work counter rows (tools/hostwork) instead")
    args = parser.parse_args(argv)

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
        if args.hostwork:
            counts = run_hostwork(repo, workload, args.seed, args.seconds)
            ledger["rows"].append({"label": args.label, "workload": workload, "seed": args.seed,
                                   "seconds": args.seconds, "hostwork": counts})
            save(ledger, args.out)
            print(f"{args.label} {workload}: " + " ".join(
                f"{name} {counts[name]:.6g}" for name in HOSTWORK_COUNTERS), file=sys.stderr)
            continue
        info, result, code = run_workload(repo, workload, args.seed, args.seconds, args.trace)
        status = status or code
        ledger["rows"].append({"label": args.label, "workload": workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace, "info": info,
                               "result": result})
        save(ledger, args.out)
        # A traced run reports the per-layer metrics instead of the end-to-end
        # ones.
        host = "sim.host_ns_per_event" if args.trace else "host_us_per_call"
        value = result["metrics"].get(host, {}).get("value", float("nan"))
        print(f"{args.label} {workload}: {host} {value:.3f} digest {info.get('digest')}",
              file=sys.stderr)
    return status


def quartiles(values):
    """(median, q1, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize_hostwork(groups, out):
    """Prints every hostwork group; returns how many labels were not exact."""
    inexact = 0
    for (workload, seed), by_label in groups.items():
        labels = list(by_label)
        print(f"{workload} seed {seed} hostwork: "
              + ", ".join(f"{label} x{len(by_label[label])}" for label in labels), file=out)
        for name in HOSTWORK_COUNTERS:
            base = by_label[labels[0]][0][name]
            cells = []
            for label in labels:
                values = {counts[name] for counts in by_label[label]}
                value = by_label[label][0][name]
                cell = f"{label} {value:.6g}"
                if label != labels[0]:
                    cell += f" ({value - base:+.6g})"
                if len(values) > 1:
                    inexact += 1
                    cell += " NOT EXACT: " + ",".join(f"{v:.6g}" for v in sorted(values))
                cells.append(cell)
            print(f"  {name:<30} " + "  ".join(cells), file=out)
    return inexact


def summarize(path, out=sys.stdout):
    with open(path) as f:
        rows = json.load(f)["rows"]
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    metric_order = [m["name"] for m in spec["end_to_end"] + spec.get("per_layer", [])]

    groups = {}
    hostwork = {}
    for row in rows:
        if "hostwork" in row:
            key = (row["workload"], row["seed"])
            hostwork.setdefault(key, {}).setdefault(row["label"], []).append(row["hostwork"])
            continue
        key = (row["workload"], row["seed"], row.get("trace", 0))
        groups.setdefault(key, {}).setdefault(row["label"], []).append(row)

    mismatches = summarize_hostwork(hostwork, out)
    for (workload, seed, trace), by_label in groups.items():
        labels = list(by_label)
        pairs = min(len(r) for r in by_label.values())
        print(f"{workload} seed {seed}{' trace 1' if trace else ''}: "
              + ", ".join(f"{label} x{len(by_label[label])}" for label in labels), file=out)
        present = set()
        for label_rows in by_label.values():
            for row in label_rows:
                present.update(row["result"]["metrics"])
        for metric in [m for m in metric_order if m in present]:
            cells = []
            for label in labels:
                values = [r["result"]["metrics"][metric]["value"] for r in by_label[label]
                          if metric in r["result"]["metrics"]]
                median, q1, q3 = quartiles(values)
                cells.append(f"{label} {median:.6g} [{q1:.6g}, {q3:.6g}]")
            line = f"  {metric:<30} " + "  ".join(cells)
            if len(labels) == 2 and pairs > 0:
                base, other = by_label[labels[0]], by_label[labels[1]]
                wins = 0
                for k in range(pairs):
                    a = base[k]["result"]["metrics"].get(metric, {}).get("value")
                    b = other[k]["result"]["metrics"].get(metric, {}).get("value")
                    if a is None or b is None or a == b:
                        continue
                    wins += (b < a) if better[metric] == "lower" else (b > a)
                line += f"  {labels[1]} wins {wins}/{pairs}"
            print(line, file=out)
        fingerprints = {(r["info"].get("digest"), r["info"].get("events"))
                        for label_rows in by_label.values() for r in label_rows}
        if len(fingerprints) > 1:
            mismatches += 1
            detail = "; ".join(
                f"{label} " + ",".join(f"{r['info'].get('digest')}/{r['info'].get('events')}"
                                       for r in by_label[label]) for label in labels)
            print(f"  DIGEST MISMATCH: {detail}", file=out)
    return 1 if mismatches else 0


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "summarize":
        if len(sys.argv) != 3:
            print("usage: bench_ledger.py summarize FILE", file=sys.stderr)
            return 2
        return summarize(sys.argv[2])
    return append_runs(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
