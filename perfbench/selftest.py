"""Self-test of the benchmark: every workload at a tiny size, and the oracle
against deliberately broken outputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import unittest

import numpy as np

import run

run.load_program()

import oracle  # noqa: E402  (needs the program on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "replay_dense": dataclasses.replace(workloads.WORKLOADS["replay_dense"], actuations=60),
    "live_10khz": workloads.WORKLOADS["live_10khz"],   # sized by seconds
    "train_models": dataclasses.replace(workloads.WORKLOADS["train_models"],
                                        fault_counts=(60, 20, 20, 40), rul_valves=1),
}
TINY_SECONDS = 1.0


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec, _ = run.declared_metrics()
        cls.blobs = workloads.model_blobs(run.ROOT, run.OUT)

    def test_tiny_sizes_cover_every_workload(self):
        self.assertEqual(set(TINY), set(workloads.WORKLOADS))
        self.assertEqual(set(TINY), {w["name"] for w in self.spec["workloads"]})

    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = {m["name"] for m in self.spec["end_to_end"]}
        for name, w in TINY.items():
            with self.subTest(workload=name):
                m = workloads.run_workload(w, seed=3, seconds=TINY_SECONDS, blobs=self.blobs)
                self.assertEqual(set(m.metrics), names)
                for key, value in m.metrics.items():
                    self.assertTrue(math.isfinite(value) and value > 0, (key, value))
                self.assertGreaterEqual(m.attempted, 1)
                if isinstance(w, workloads.MonitorWorkload):
                    self.assertEqual(m.failures, [])

    def test_traced_runs_report_every_per_layer_metric(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        for name, w in TINY.items():
            with self.subTest(workload=name):
                metrics, attempted, failures, spans = tracing.traced_run(
                    w, seed=3, seconds=TINY_SECONDS, blobs=self.blobs)
                self.assertEqual(set(metrics), names)
                self.assertTrue(all(math.isfinite(v) for v in metrics.values()))
                self.assertGreaterEqual(attempted, 1)
                self.assertTrue(spans)
                if isinstance(w, workloads.MonitorWorkload):
                    self.assertEqual(failures, [])
                    self.assertGreater(metrics["acquisition.banks"], 0)
                    self.assertEqual(metrics["acquisition.overruns"], 0)

    def test_inputs_follow_the_seed(self):
        w = TINY["replay_dense"]
        a, b = (workloads.make_stream(w, 9, TINY_SECONDS) for _ in range(2))
        self.assertTrue(np.array_equal(a.codes, b.codes))
        c = workloads.make_stream(w, 10, TINY_SECONDS)
        self.assertFalse(np.array_equal(a.codes, c.codes))


class Oracle(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        blobs = workloads.model_blobs(run.ROOT, run.OUT)
        w = TINY["replay_dense"]
        cls.cfg = w.config()
        stream, fm, rm = workloads.setup_monitor(w, 5, TINY_SECONDS, blobs)
        cls.events = workloads.monitor_once(stream, fm, rm, cls.cfg).events
        cls.ref = oracle.reference(stream.codes, fm, rm, cls.cfg)

    def failures(self, events, latency=None, limit=None):
        return oracle.check(self.ref, oracle.Outcome.from_events(events), latency, limit)[1]

    def test_clean_run_passes(self):
        self.assertGreater(len(self.events), 10)
        self.assertEqual(self.failures(self.events), [])

    def test_dropped_event_is_flagged(self):
        dropped = self.events[:7] + self.events[8:]
        found = self.failures(dropped)
        self.assertEqual(len(found), 1)
        self.assertTrue(found[0].startswith("missing"), found)

    def test_perturbed_probability_is_flagged(self):
        events = list(self.events)
        e = events[4]
        probs = e.fault_probs.copy()
        probs[0] += 1e-7
        events[4] = dataclasses.replace(e, fault_probs=probs)
        found = self.failures(events)
        self.assertEqual(len(found), 1)
        self.assertTrue(found[0].startswith("mismatch"), found)

    def test_extra_and_late_events_are_flagged(self):
        e = self.events[2]
        extra = self.events + [dataclasses.replace(e, zero_index=self.events[-1].zero_index + 1)]
        self.assertTrue(self.failures(extra)[0].startswith("extra"))
        latency = [0.0] * len(self.events)
        latency[3] = 1.0
        found = self.failures(self.events, latency, 0.2)
        self.assertEqual(len(found), 1)
        self.assertTrue(found[0].startswith("late"), found)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Holding only BENCHMARK.json and the benchmark, a run exits non-zero
        and prints no result."""
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "replay_dense",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
