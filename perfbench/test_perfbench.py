#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that a fixed seed replays
bit-identically, that another seed changes the event stream, that a value
corrupted on purpose is caught, and that run.py fails cleanly without the
library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

WORKLOADS = ["kv_small_get", "kv_mixed_put", "echo_pipelined", "echo_phased"]
SECONDS = "0.05"  # a few virtual milliseconds per run

# Per-layer metrics that are host wall times; everything else is simulated
# and must replay exactly.
HOST_METRICS = {"sim.host_ns_per_event", "kv.preload_s", "workload.value_ns_per_call",
                "workload.gen_ns_per_call", "conn.bringup_s", "trace.overhead_us_per_call"}
SIM_END_TO_END = {"sim_mops", "sim_p50_us", "sim_p99_us", "sim_p999_us", "ok_frac"}


def drive(workload, seed, trace=0, corrupt=0, out_dir=None):
    """Runs the driver; returns (exit code, info object, result object)."""
    cmd = [os.path.join(ROOT, run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--replicas", "2"]
    if corrupt:
        cmd += ["--corrupt", str(corrupt)]
    if out_dir:
        cmd += ["--out", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["info"], json.loads(lines[-1])


def values(result, names=None):
    return {k: v["value"] for k, v in result["metrics"].items() if names is None or k in names}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            run.build()
        finally:
            os.chdir(cwd)
        cls.out = tempfile.mkdtemp(prefix="perfbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def test_same_seed_is_bit_identical(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, info_a, e2e_a = drive(workload, 7)
                code_b, info_b, e2e_b = drive(workload, 7)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertEqual(info_a, info_b)
                self.assertEqual(values(e2e_a, SIM_END_TO_END), values(e2e_b, SIM_END_TO_END))
                self.assertEqual(values(e2e_a)["ok_frac"], 1)
                _, _, layer_a = drive(workload, 7, trace=1, out_dir=self.out)
                _, _, layer_b = drive(workload, 7, trace=1, out_dir=self.out)
                counts = set(layer_a["metrics"]) - HOST_METRICS
                self.assertEqual(values(layer_a, counts), values(layer_b, counts))

    def test_second_seed_changes_event_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, info_a, _ = drive(workload, 1)
                _, info_b, _ = drive(workload, 2)
                self.assertNotEqual(info_a["digest"], info_b["digest"])

    def test_corrupted_value_is_counted(self):
        for workload in ("kv_small_get", "echo_phased"):
            with self.subTest(workload=workload):
                code, _, result = drive(workload, 1, corrupt=97)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(values(result)["ok_frac"], 1)

    def test_echo_phased_switches_both_ways(self):
        _, info, _ = drive("echo_phased", 1)
        self.assertGreater(info["switches_to_reply"], 0)
        self.assertGreater(info["switches_to_fetch"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, traced = drive(workload, 3, trace=1, out_dir=self.out)
                self.assertEqual(set(traced["metrics"]), {m["name"] for m in spec["per_layer"]})
                self.assertTrue(os.path.isfile(os.path.join(self.out, workload + ".trace.json")))
                _, _, plain = drive(workload, 3)
                self.assertEqual(set(plain["metrics"]), {m["name"] for m in spec["end_to_end"]})

    def test_run_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kv_small_get",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
