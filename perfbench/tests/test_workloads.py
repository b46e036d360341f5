"""Every workload at a tiny size, with all of its checks on.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

harness.require_program()


class TinyRuns(unittest.TestCase):
    def run_tiny(self, name: str, trace: bool):
        workload = importlib.import_module(f"workloads.{name}")
        return workload.run(seed=3, seconds=0.0, trace=trace, tiny=True)

    def test_untraced_runs_pass_their_checks_and_report_every_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out = self.run_tiny(name, trace=False)
                self.assertTrue(out.correct, out.notes)
                self.assertGreater(out.attempted, 0)
                self.assertEqual(out.failed, 0, out.notes)
                self.assertEqual(set(out.end_to_end), set(harness.END_TO_END))
                for metric, value in out.end_to_end.items():
                    self.assertGreater(value, 0.0, metric)

    def test_traced_runs_report_the_layers_they_exercise(self):
        exercised = {
            "acc_drive": ["runtime.self_us", "funcsw.step_us", "hal.stamp_us",
                          "envmodel.report_odd_ms", "middleware.publishes_per_step",
                          "acc.plant_us", "modemgr.dispatches"],
            "odd_catalog": ["envmodel.query_p50_ms", "envmodel.levenshtein_calls_per_query",
                            "envmodel.results_per_query", "envmodel.create_us",
                            "envmodel.update_us", "envmodel.delete_us", "envmodel.open_s"],
            "lossy_link": ["wire.encode_us", "wire.decode_us", "wire.frames_encoded",
                           "middleware.advance_us", "link.frames_per_sample",
                           "link.dropped_frames", "link.bus_log_frames"],
            "inproc_bus": ["middleware.publish_us", "middleware.take_us",
                           "middleware.release_us", "middleware.size_ratio",
                           "middleware.call_us"],
        }
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out = self.run_tiny(name, trace=True)
                self.assertEqual(out.failed, 0, out.notes)
                self.assertTrue(set(out.per_layer) <= set(harness.PER_LAYER))
                for metric in exercised[name]:
                    self.assertGreater(out.per_layer.get(metric, 0.0), 0.0, metric)
                self.assertIn("trace.overhead_pct", out.per_layer)

    def test_modemgr_sees_two_dispatches_per_drive(self):
        out = self.run_tiny("acc_drive", trace=True)
        self.assertEqual(out.per_layer["modemgr.dispatches"], 2.0)
        self.assertEqual(out.per_layer["funcsw.fired_per_step"], 5.0)


class CommandLine(unittest.TestCase):
    def test_prints_the_result_as_the_last_line(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "inproc_bus",
             "--seed", "5", "--seconds", "0.2", "--trace", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(harness.END_TO_END))

    def test_fails_without_the_program(self):
        bare = os.path.join(harness.RESULTS_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "acc_drive", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
