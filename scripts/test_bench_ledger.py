#!/usr/bin/env python3
"""Self-test of `scripts/bench_ledger.py summarize` on a synthetic ledger.

    python3 scripts/test_bench_ledger.py

Checks the per-label medians and quartiles, the pair-win count for a
lower-is-better and a higher-is-better metric, that a digest mismatch
between the labels is flagged (exit 1) while matching digests are not, and
that `--hostwork 1` rows print each counter's delta between labels.
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_ledger  # noqa: E402


def row(label, workload, host_us, mops, digest="d0", events=100, trace=0):
    return {"label": label, "workload": workload, "seed": 7, "seconds": 1.0, "trace": trace,
            "info": {"digest": digest, "events": events},
            "result": {"metrics": {"host_us_per_call": {"value": host_us, "unit": "us"},
                                   "sim_mops": {"value": mops, "unit": "Mcalls/s"}}}}


def hostwork_row(label, workload, frames, allocs=0.0):
    return {"label": label, "workload": workload, "seed": 7, "seconds": 1.0,
            "hostwork": {"workload": workload, "seed": 7, "window_calls": 100,
                         "dispatches_per_call": 13.0, "frames_per_call": frames,
                         "allocs_per_call": allocs, "alloc_bytes_per_call": 64 * allocs}}


def summarize(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.json")
        with open(path, "w") as f:
            json.dump({"rows": rows}, f)
        out = io.StringIO()
        status = bench_ledger.summarize(path, out)
        return status, out.getvalue()


class SummarizeTest(unittest.TestCase):
    def test_medians_quartiles_and_wins(self):
        rows = []
        # Alternating pairs: the change is faster in two of three and ties
        # sim_mops in all but one pair, where it is higher.
        for parent_us, change_us, change_mops in ((4.0, 3.0, 5.0), (5.0, 3.5, 5.0),
                                                  (6.0, 7.0, 5.5)):
            rows.append(row("parent", "kv", parent_us, 5.0))
            rows.append(row("change", "kv", change_us, change_mops))
        status, text = summarize(rows)
        self.assertEqual(status, 0, text)
        host = next(line for line in text.splitlines() if "host_us_per_call" in line)
        self.assertIn("parent 5 [4.5, 5.5]", host)
        self.assertIn("change 3.5 [3.25, 5.25]", host)
        self.assertIn("change wins 2/3", host)
        mops = next(line for line in text.splitlines() if "sim_mops" in line)
        self.assertIn("change wins 1/3", mops)
        self.assertNotIn("DIGEST MISMATCH", text)

    def test_digest_or_event_mismatch_is_flagged_per_group(self):
        rows = [row("parent", "same", 2.0, 1.0), row("change", "same", 1.0, 1.0),
                row("parent", "moved", 2.0, 1.0, digest="aa"),
                row("change", "moved", 1.0, 1.0, digest="bb"),
                row("parent", "counted", 2.0, 1.0, events=10),
                row("change", "counted", 1.0, 1.0, events=11)]
        status, text = summarize(rows)
        self.assertEqual(status, 1)
        blocks = {}
        for line in text.splitlines():
            if not line.startswith(" "):
                current = line.split()[0]
                blocks[current] = []
            else:
                blocks[current].append(line)
        self.assertFalse(any("DIGEST MISMATCH" in line for line in blocks["same"]))
        self.assertTrue(any("DIGEST MISMATCH" in line for line in blocks["moved"]))
        self.assertTrue(any("DIGEST MISMATCH" in line for line in blocks["counted"]))

    def test_trace_rows_are_their_own_group(self):
        rows = [row("parent", "kv", 4.0, 1.0), row("change", "kv", 3.0, 1.0),
                row("parent", "kv", 9.0, 1.0, trace=1), row("change", "kv", 8.0, 1.0, trace=1)]
        status, text = summarize(rows)
        self.assertEqual(status, 0)
        headers = [line for line in text.splitlines() if not line.startswith(" ")]
        self.assertEqual(headers, ["kv seed 7: parent x1, change x1",
                                   "kv seed 7 trace 1: parent x1, change x1"])

    def test_hostwork_rows_print_exact_deltas(self):
        rows = [row("parent", "echo", 2.0, 1.0), row("change", "echo", 1.0, 1.0),
                hostwork_row("parent", "echo", 17.5, 2.0), hostwork_row("change", "echo", 11.25)]
        status, text = summarize(rows)
        self.assertEqual(status, 0, text)
        lines = text.splitlines()
        self.assertIn("echo seed 7 hostwork: parent x1, change x1", lines)
        self.assertIn("echo seed 7: parent x1, change x1", lines)
        frames = next(line for line in lines if "frames_per_call" in line)
        self.assertIn("parent 17.5  change 11.25 (-6.25)", frames)
        dispatches = next(line for line in lines if "dispatches_per_call" in line)
        self.assertIn("change 13 (+0)", dispatches)
        allocs = next(line for line in lines if "allocs_per_call" in line)
        self.assertIn("change 0 (-2)", allocs)

    def test_hostwork_counter_that_differs_within_a_label_is_flagged(self):
        rows = [hostwork_row("parent", "echo", 17.5), hostwork_row("parent", "echo", 17.0),
                hostwork_row("change", "echo", 11.0)]
        status, text = summarize(rows)
        self.assertEqual(status, 1)
        frames = next(line for line in text.splitlines() if "frames_per_call" in line)
        self.assertIn("NOT EXACT: 17,17.5", frames)


if __name__ == "__main__":
    unittest.main()
