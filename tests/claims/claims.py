#!/usr/bin/env python3
"""Paper-claims gate: bench output must still reproduce what EXPERIMENTS.md
claims for the paper.

The golden gate (scripts/golden.py) proves that an output did not move. This
gate says whether an output that did move still holds the paper's claims. Each
row of CLAIMS names its EXPERIMENTS.md section, the bench, the claim in words,
the columns it reads and a predicate over the bench's --json table (schema v1:
one {"values": {column: printed cell}} object per printed row, and the run's
metrics dump).

    python3 tests/claims/claims.py --build-dir build            # every bench
    python3 tests/claims/claims.py --build-dir build BENCH [...] # some benches
    python3 tests/claims/claims.py --list                       # benches with claims

ctest runs one `BENCH` per bench under the `claims` label
(tests/claims/CMakeLists.txt). Each bench runs at --seed=1 with a pinned
RFP_BENCH_SCALE and without RFP_CHECK, as the golden gate runs it, and then
once more with --check=report: the invariant checker (src/check/) must count
no violation and leave every printed row as it was.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

# The golden gate's scale: every claim below holds at it, and each bench
# costs at most a few seconds.
SCALE = "0.05"
SEED_ARG = "--seed=1"
RUN_TIMEOUT_S = 600


class Table:
    """The printed rows of one bench run, cells as printed, and the run's
    metrics dump; `checked` is the same bench's --check=report run."""

    def __init__(self, rows, metrics=()):
        self.rows = rows
        self.metrics = metrics
        self.checked = None

    def cells(self, name, **where):
        """The column's cells, as printed strings in printed order, over the
        rows whose cells equal every `where` keyword."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in where.items()):
                out.append(row[name])
        if not out:
            raise KeyError(f"no row with {where} carries column {name!r}")
        return out

    def column(self, name, **where):
        """Like cells, as floats."""
        return [float(cell) for cell in self.cells(name, **where)]

    def metric(self, name, field="value"):
        """`field` of every series of metric `name` (one per label set): a
        counter's or gauge's "value", a histogram's "count" or "mean"."""
        out = [m[field] for m in self.metrics if m["name"] == name]
        if not out:
            raise KeyError(f"no metric {name!r} in the dump")
        return out

    def one(self, name, **where):
        values = self.column(name, **where)
        if len(values) != 1:
            raise KeyError(f"{len(values)} rows match {where}, expected one")
        return values[0]


def within(value, target, rel):
    return abs(value - target) <= rel * target


def nondecreasing(values):
    return all(a <= b for a, b in zip(values, values[1:]))


MULTICORE_COLUMNS = ("workers", "window", "mops", "inbound_util", "cpu_util", "bottleneck",
                     "coalesced", "steals", "errors")
MEMORY_SWEEP_COLUMNS = ("mode", "value", "mops", "speedup", "reg_mib", "zc_fetches", "fallbacks",
                        "errors")
MEMORY_CHURN_COLUMNS = ("round", "channels", "reconnects", "new_regs", "dereg", "reg_kib",
                        "mr_reuses")
OVERLOAD_COLUMNS = ("config", "offered", "goodput", "shed%", "p50_us", "p99_us", "busy",
                    "brk_open", "switches", "errors")
PIPELINE_COLUMNS = ("window", "value", "workers", "mops", "speedup", "p50_us", "p99_us",
                    "doorbells", "occupancy", "errors")


def sweep_rows(t):
    """bench_ext_memory's value-sweep rows (the churn rows carry no mode)."""
    return [row for row in t.rows if "mode" in row]


def churn_rows(t):
    return [row for row in t.rows if "mode" not in row]


def window_sweep(t):
    """bench_ext_pipeline's 15 window x value rows, windows ascending; the
    three multicore worker-sweep rows follow them."""
    return t.rows[:15]


def failover_rows(t):
    """bench_ext_replication's two ack_mode rows, sync then async (the
    availability-trace rows carry no ack_mode)."""
    rows = [row for row in t.rows if "ack_mode" in row]
    if [row["ack_mode"] for row in rows] != ["sync", "async"]:
        raise KeyError(f"ack_mode rows {[row['ack_mode'] for row in rows]}, expected sync, async")
    return rows


def recovers(t, mode):
    """Every availability-trace bucket of `mode` at or after its recovered_us
    completes at least 90 % of its steady rate (kops = ops per ms, so a
    100 us bucket holds steady_kops / 10 ops)."""
    row = next(r for r in failover_rows(t) if r["ack_mode"] == mode)
    floor = 0.9 * float(row["steady_kops"]) / 10
    buckets = [float(r[mode + "_ops"]) for r in t.rows
               if "t_us" in r and float(r["t_us"]) >= float(row["recovered_us"])]
    return len(buckets) > 0 and min(buckets) >= floor


def has_columns(t, count, columns):
    """Exactly `count` printed rows, each carrying every one of `columns`."""
    return len(t.rows) == count and all(set(columns) <= row.keys() for row in t.rows)


def batched(row):
    """A window > 1 row batched its postings; a window-1 row never does."""
    if float(row["window"]) > 1:
        return float(row["doorbells"]) > 0 and float(row["occupancy"]) > 1
    return float(row["doorbells"]) == 0


def steady_churn(row):
    """A churn round after the warm round 0 recycles everything."""
    return (float(row["new_regs"]) == 0 and float(row["dereg"]) == 0
            and float(row["mr_reuses"]) > 0 and float(row["reconnects"]) >= float(row["round"]))


@dataclass
class Claim:
    section: str  # EXPERIMENTS.md section
    bench: str
    text: str
    columns: tuple  # printed next to the verdict
    holds: Callable[[Table], bool]


CLAIMS = [
    # Fig 10: Jakiro saturates the server NIC's in-bound engine at ~5.5 MOPS,
    # and remote fetching costs about two round trips per call (one WRITE, one
    # successful READ) at every client count.
    Claim("Fig 10", "bench_fig10_jakiro_clients", "peak mops >= 5.3", ("mops",),
          lambda t: max(t.column("mops")) >= 5.3),
    Claim("Fig 10", "bench_fig10_jakiro_clients", "rtrips/call within [1.98, 2.02] in every row",
          ("rtrips/call",),
          lambda t: all(1.98 <= r <= 2.02 for r in t.column("rtrips/call"))),
    # Fig 11: at 50 % GET, Jakiro beats server-bypass Pilaf by well over 3x at
    # every value size. The printed speedup cell is rounded ("4.1x"), so the
    # ratio comes from the two throughput columns.
    Claim("Fig 11", "bench_fig11_vs_pilaf", "jakiro / pilaf >= 3.5 in every row",
          ("jakiro", "pilaf"),
          lambda t: all(j >= 3.5 * p for j, p in zip(t.column("jakiro"), t.column("pilaf")))),
    # Ext-2: UD datagram RPC is reply-issue-bound like server-reply on a clean
    # network; loss costs retransmit timeouts in the tail; RC-based RFP is
    # untouched (loss applies to unreliable transports only).
    Claim("Ext-2", "bench_ext_ud_loss", "clean ud_mops within 2.1 +- 5 %", ("ud_mops",),
          lambda t: within(t.one("ud_mops", loss="0"), 2.1, 0.05)),
    Claim("Ext-2", "bench_ext_ud_loss",
          "retransmits 0 at loss 0 and non-decreasing as loss grows", ("retransmits",),
          lambda t: t.one("retransmits", loss="0") == 0
          and nondecreasing(t.column("retransmits"))),
    Claim("Ext-2", "bench_ext_ud_loss", "ud_p99_us at 1e-02 loss >= 1.5x the clean ud_p99_us",
          ("ud_p99_us",),
          lambda t: t.one("ud_p99_us", loss="1e-02") >= 1.5 * t.one("ud_p99_us", loss="0")),
    Claim("Ext-2", "bench_ext_ud_loss", "rfp_mops >= 5.3 and equal in every row", ("rfp_mops",),
          lambda t: min(t.column("rfp_mops")) >= 5.3 and len(set(t.column("rfp_mops"))) == 1),
    # Multi-core dispatch: the MOPS-vs-workers sweep crosses from cpu-bound to
    # nic_inbound-bound, and the 32 B rows that clear 9 MOPS (>= 80 % of the
    # 11.26 MOPS in-bound envelope) owe the plateau to the NIC model.
    Claim("Multi-core", "bench_ext_multicore",
          "15 rows (5 worker counts x 3 windows), each with every sweep column", (),
          lambda t: len(t.rows) == 15
          and all(set(MULTICORE_COLUMNS) <= row.keys() for row in t.rows)),
    Claim("Multi-core", "bench_ext_multicore",
          "one worker is cpu-bound: bottleneck cpu at cpu_util > 0.9", ("bottleneck", "cpu_util"),
          lambda t: t.cells("bottleneck", workers="1") == ["cpu"] * 3
          and min(t.column("cpu_util", workers="1")) > 0.9),
    Claim("Multi-core", "bench_ext_multicore",
          "some row reaches 9 MOPS, and every such row is nic_inbound at inbound_util > 0.9",
          ("mops", "bottleneck", "inbound_util"),
          lambda t: any(float(r["mops"]) >= 9.0 for r in t.rows)
          and all(r["bottleneck"] == "nic_inbound" and float(r["inbound_util"]) > 0.9
                  for r in t.rows if float(r["mops"]) >= 9.0)),
    Claim("Multi-core", "bench_ext_multicore", "coalesced > 0 and errors 0 in every row",
          ("coalesced", "errors"),
          lambda t: min(t.column("coalesced")) > 0 and set(t.column("errors")) == {0.0}),
    Claim("Multi-core", "bench_ext_multicore",
          "rfp.channel.coalesced_fetches > 0 in every metrics series", (),
          lambda t: min(t.metric("rfp.channel.coalesced_fetches")) > 0),
    # Latency runs from each call's SubmitCall to its completion, so even the
    # first call of a burst to complete waits out its burst's service time.
    Claim("Multi-core", "bench_ext_multicore", "p50_us > 0 and p99_us >= p50_us in every row",
          ("p50_us", "p99_us"),
          lambda t: min(t.column("p50_us")) > 0
          and all(p99 >= p50 for p50, p99 in zip(t.column("p50_us"), t.column("p99_us")))),
    # Zero-copy GET: the staged/zerocopy sweep over 6 value sizes, then 5
    # rounds of channel churn over the nodes' shared registered-memory pools.
    Claim("Zero-copy", "bench_ext_memory",
          "17 rows: 12 sweep rows (6 values x staged/zerocopy) and 5 churn rounds, each with "
          "its table's columns", (),
          lambda t: len(t.rows) == 17
          and len(sweep_rows(t)) == 12
          and sorted(r["mode"] for r in sweep_rows(t)) == ["staged"] * 6 + ["zerocopy"] * 6
          and all(set(MEMORY_SWEEP_COLUMNS) <= r.keys() for r in sweep_rows(t))
          and [r["round"] for r in churn_rows(t)] == ["0", "1", "2", "3", "4"]
          and all(set(MEMORY_CHURN_COLUMNS) <= r.keys() for r in churn_rows(t))),
    Claim("Zero-copy", "bench_ext_memory", "errors and fallbacks 0 in every sweep row",
          ("errors", "fallbacks"),
          lambda t: all(float(r["errors"]) == 0 and float(r["fallbacks"]) == 0
                        for r in sweep_rows(t))),
    Claim("Zero-copy", "bench_ext_memory", "zc_fetches > 0 on exactly the zerocopy rows",
          ("mode", "zc_fetches"),
          lambda t: all((float(r["zc_fetches"]) > 0) == (r["mode"] == "zerocopy")
                        for r in sweep_rows(t))),
    Claim("Zero-copy", "bench_ext_memory", "zerocopy speedup >= 1.5 at 64 KiB", ("speedup",),
          lambda t: t.one("speedup", mode="zerocopy", value="65536") >= 1.5),
    # Churn: rings recycle through the pools (and start zeroed, or the echo
    # calls of a round would read a predecessor's stale headers).
    Claim("Zero-copy", "bench_ext_memory",
          "churn rounds > 0: new_regs = dereg = 0, mr_reuses > 0, reconnects >= round",
          ("new_regs", "dereg", "mr_reuses", "reconnects"),
          lambda t: all(steady_churn(r) for r in churn_rows(t) if float(r["round"]) > 0)),
    Claim("Zero-copy", "bench_ext_memory",
          "mem.mr_reuse and mem.registered_bytes > 0 in every metrics series", (),
          lambda t: min(t.metric("mem.mr_reuse")) > 0
          and min(t.metric("mem.registered_bytes")) > 0),
    # Overload protection: an open-loop sweep past saturation, with and
    # without admission control, plus a worker crash under 2x overload. The
    # protected runs shed, so the overload instruments count.
    Claim("Overload", "bench_ext_overload",
          "13 rows (6 offered loads x protected/unprotected + 1 crash row), each with every "
          "sweep column", (),
          lambda t: has_columns(t, 13, OVERLOAD_COLUMNS)),
    Claim("Overload", "bench_ext_overload", "errors 0 in every row", ("errors",),
          lambda t: set(t.column("errors")) == {0.0}),
    Claim("Overload", "bench_ext_overload",
          "rfp.channel.busy_responses and rfp.rpc.shed_admission > 0 in every metrics series", (),
          lambda t: min(t.metric("rfp.channel.busy_responses")) > 0
          and min(t.metric("rfp.rpc.shed_admission")) > 0),
    # Pipelining: windowed channels batch their postings behind one doorbell.
    Claim("Pipelining", "bench_ext_pipeline",
          "18 rows (5 windows x 3 value sizes + 3 worker-sweep rows), each with every sweep "
          "column", (),
          lambda t: has_columns(t, 18, PIPELINE_COLUMNS)),
    Claim("Pipelining", "bench_ext_pipeline", "errors 0 in every row", ("errors",),
          lambda t: set(t.column("errors")) == {0.0}),
    Claim("Pipelining", "bench_ext_pipeline",
          "doorbells > 0 and occupancy > 1 exactly on the window > 1 rows; doorbells 0 at "
          "window 1", ("window", "doorbells", "occupancy"),
          lambda t: any(float(r["window"]) > 1 for r in t.rows)
          and all(batched(r) for r in t.rows)),
    Claim("Pipelining", "bench_ext_pipeline",
          "rfp.channel.doorbell_batches > 0, and rfp.channel.batch_occupancy count > 0 and "
          "mean > 1, in every metrics series", (),
          lambda t: min(t.metric("rfp.channel.doorbell_batches")) > 0
          and min(t.metric("rfp.channel.batch_occupancy", "count")) > 0
          and min(t.metric("rfp.channel.batch_occupancy", "mean")) > 1),
    # Fault tolerance: every transient fault recovers to the pre-fault rate,
    # every completed reply is bit-correct, and losing one of four workers
    # degrades the fault window to roughly 3/4 capacity without a deadlock.
    Claim("Fault tolerance", "bench_ext_fault_tolerance", "after/before within 1 % of 1.0 in "
          "every row", ("after/before",),
          lambda t: all(within(r, 1.0, 0.01) for r in t.column("after/before"))),
    Claim("Fault tolerance", "bench_ext_fault_tolerance", "mismatches 0 in every row",
          ("mismatches",),
          lambda t: set(t.column("mismatches")) == {0.0}),
    Claim("Fault tolerance", "bench_ext_fault_tolerance",
          "server_crash during_mops / before_mops within [0.6, 0.9]",
          ("fault", "before_mops", "during_mops"),
          lambda t: 0.6 <= t.one("during_mops", fault="server_crash")
          / t.one("before_mops", fault="server_crash") <= 0.9),
    # Switch hysteresis: one slow call is enough to flap a channel into
    # server-reply at hysteresis 1; the paper's two-call rule suppresses it.
    Claim("Switch hysteresis", "bench_ablation_switch",
          "mode_switches at hysteresis 1 >= 10x those at hysteresis 2, and 0 from 3 on",
          ("hysteresis", "mode_switches"),
          lambda t: t.one("mode_switches", hysteresis="1")
          >= 10 * t.one("mode_switches", hysteresis="2")
          and all(float(r["mode_switches"]) == 0 for r in t.rows
                  if float(r["hysteresis"]) >= 3)),
    # Replication: a primary killed at 2 ms loses no acknowledged PUT in
    # either ack mode, the backup is promoted within the lease bound, and
    # from recovered_us on every 100 us bucket of the availability trace
    # completes at least 90 % of the pre-kill steady rate.
    Claim("Replication", "bench_ext_replication", "lost_acked 0 in both ack_mode rows",
          ("ack_mode", "lost_acked"),
          lambda t: [r["lost_acked"] for r in failover_rows(t)] == ["0", "0"]),
    Claim("Replication", "bench_ext_replication", "within_lease yes in both ack_mode rows",
          ("ack_mode", "within_lease"),
          lambda t: [r["within_lease"] for r in failover_rows(t)] == ["yes", "yes"]),
    Claim("Replication", "bench_ext_replication",
          "every trace bucket from recovered_us on >= 0.9 x steady_kops per 100 us, "
          "in both ack modes", ("ack_mode", "steady_kops", "recovered_us"),
          lambda t: all(recovers(t, mode) for mode in ("sync", "async"))),
    # Latency runs from each call's SubmitCall (bench::DriveCalls), so a
    # deeper window queues more calls ahead of each one.
    Claim("Pipelining", "bench_ext_pipeline", "p50_us > 0 and p99_us >= p50_us in every row",
          ("p50_us", "p99_us"),
          lambda t: min(t.column("p50_us")) > 0
          and all(p99 >= p50 for p50, p99 in zip(t.column("p50_us"), t.column("p99_us")))),
    Claim("Pipelining", "bench_ext_pipeline",
          "p50_us non-decreasing in window at each value size (the 2-worker window sweep)",
          ("value", "window", "p50_us"),
          lambda t: all(nondecreasing([float(r["p50_us"]) for r in window_sweep(t)
                                       if r["value"] == v])
                        for v in ("32", "256", "1024"))),
]


def checked_claim(bench):
    """The row every bench gets: the checked run prints the unchecked run's
    rows, cell for cell, and counts no violation (an absent metric is 0)."""
    return Claim("Checked", bench,
                 "--check=report: rows equal the unchecked rows, check.violation sums to 0",
                 (), lambda t: t.checked.rows == t.rows
                 and sum(m["value"] for m in t.checked.metrics
                         if m["name"] == "check.violation") == 0)


def benches():
    return sorted({claim.bench for claim in CLAIMS})


def run(build_dir, bench, *flags):
    env = dict(os.environ, RFP_BENCH_SCALE=SCALE)
    env.pop("RFP_CHECK", None)  # the checker runs only where a flag asks for it
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, bench + ".json")
        proc = subprocess.run([os.path.join(build_dir, "bench", bench), SEED_ARG,
                               "--json=" + path, *flags], env=env, stdout=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{bench} exited with status {proc.returncode}")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    if doc.get("bench") != bench or doc.get("schema_version") != 1:
        raise RuntimeError(f"{bench} wrote a dump of bench {doc.get('bench')!r}, "
                           f"schema {doc.get('schema_version')!r}")
    return Table([row["values"] for row in doc["rows"]], doc.get("metrics", ()))


def check(build_dir, names):
    failed = 0
    for bench in names:
        table = run(build_dir, bench)
        table.checked = run(build_dir, bench, "--check=report")
        for claim in [c for c in CLAIMS if c.bench == bench] + [checked_claim(bench)]:
            try:
                ok = claim.holds(table)
            except (KeyError, ValueError) as e:
                ok = False
                print(f"  error: {e}")
            failed += not ok
            observed = "; ".join(
                f"{col}: {' '.join(row.get(col, '-') for row in table.rows)}"
                for col in claim.columns)
            print(f"{'ok  ' if ok else 'FAIL'}  {claim.section:6} {bench}: {claim.text}"
                  f"  [{observed}]")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir")
    parser.add_argument("--list", action="store_true", help="print the benches with claims")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()
    if args.list:
        print(";".join(benches()))
        return 0
    if not args.build_dir:
        parser.error("--build-dir is required")
    unknown = set(args.names) - set(benches())
    if unknown:
        parser.error(f"no claims for: {' '.join(sorted(unknown))}")
    return check(args.build_dir, args.names or benches())


if __name__ == "__main__":
    sys.exit(main())
