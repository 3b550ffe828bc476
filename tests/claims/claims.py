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
(tests/claims/CMakeLists.txt). Each bench runs once at --seed=1 with a pinned
RFP_BENCH_SCALE and without RFP_CHECK, as the golden gate runs it.
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
    metrics dump."""

    def __init__(self, rows, metrics=()):
        self.rows = rows
        self.metrics = metrics

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

    def metric(self, name):
        """The values of every series of metric `name` (one per label set)."""
        out = [m["value"] for m in self.metrics if m["name"] == name]
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
]


def benches():
    return sorted({claim.bench for claim in CLAIMS})


def run(build_dir, bench):
    env = dict(os.environ, RFP_BENCH_SCALE=SCALE)
    env.pop("RFP_CHECK", None)  # claims hold for the default (unchecked) run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, bench + ".json")
        proc = subprocess.run([os.path.join(build_dir, "bench", bench), SEED_ARG,
                               "--json=" + path], env=env, stdout=subprocess.DEVNULL,
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
        for claim in (c for c in CLAIMS if c.bench == bench):
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
