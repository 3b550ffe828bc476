#!/usr/bin/env python3
"""Paper-claims gate: bench output must still reproduce what EXPERIMENTS.md
claims for the paper.

The golden gate (scripts/golden.py) proves that an output did not move. This
gate says whether an output that did move still holds the paper's claims. Each
row of CLAIMS names its EXPERIMENTS.md section, the bench, the claim in words,
the columns it reads and a predicate over the bench's --json table (schema v1:
one {"values": {column: printed cell}} object per printed row).

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
    """The printed rows of one bench run, cells as printed."""

    def __init__(self, rows):
        self.rows = rows

    def column(self, name, **where):
        """The column's values, as floats in printed order, over the rows
        whose cells equal every `where` keyword."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in where.items()):
                out.append(float(row[name]))
        if not out:
            raise KeyError(f"no row with {where} carries column {name!r}")
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


@dataclass
class Claim:
    section: str  # EXPERIMENTS.md section
    bench: str
    text: str
    columns: tuple  # printed next to the verdict
    holds: Callable[[Table], bool]


CLAIMS = [
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
    return Table([row["values"] for row in doc["rows"]])


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
