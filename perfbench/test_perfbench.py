#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_perfbench.py

Run from the repository root; builds the benchmark binary first. Each
workload runs its minimum op count (one grid pass, at least 100 ops)
per case.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import trace_report  # noqa: E402

PINNED_SEED = 1  # one of the default seeds pin_digests.py covers
SIM_KEYS = run.SIM_KEYS + ("failed",)


def child(workload, seed, *extra):
    """Run the binary for its minimum op count; return (lines, summary)."""
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", *extra],
        stdout=subprocess.PIPE, check=True, text=True).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def digests(workload):
    return os.path.join(run.HERE, "digests", workload + ".txt")


def input_keys(workload, seed):
    """The input key of every op, in op order (a hash of its input)."""
    lines, _ = child(workload, seed, "--emit-digests")
    return [l.split()[1] for l in lines if l.startswith("digest ")]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.BUILD_DIR, exist_ok=True)

    def test_same_seed_regenerates_identical_inputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                first = input_keys(w, 7)
                self.assertGreaterEqual(len(first), 100)
                self.assertEqual(first, input_keys(w, 7))
                self.assertNotEqual(first, input_keys(w, 8))

    def test_default_seed_is_pinned_and_passes(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, s = child(w, PINNED_SEED, "--digests", digests(w))
                self.assertEqual(s["failed"], 0, s["errors"])
                self.assertEqual(s["pinned_checked"], s["ops"])

    def test_flipped_output_byte_fails_the_op(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, s = child(w, PINNED_SEED, "--digests", digests(w),
                             "--flip-op", "3")
                self.assertEqual(s["failed"], 1)
                self.assertTrue(s["errors"][0].startswith("op 3:"),
                                s["errors"])

    def test_changed_digest_fails_the_op(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                key = input_keys(w, PINNED_SEED)[5]
                with open(digests(w)) as f:
                    pinned = [l.split() for l in f if not l.startswith("#")]
                with tempfile.NamedTemporaryFile(
                        "w", dir=run.BUILD_DIR, suffix=".txt") as f:
                    for k, d in pinned:
                        if k == key:
                            d = "%016x" % (int(d, 16) ^ 1)
                        f.write("%s %s\n" % (k, d))
                    f.flush()
                    _, s = child(w, PINNED_SEED, "--digests", f.name)
                self.assertEqual(s["failed"], 1)
                self.assertEqual(s["pinned_mismatched"], 1)
                self.assertTrue(s["errors"][0].startswith("op 5:"),
                                s["errors"])

    def test_traced_and_untraced_runs_agree(self):
        with open(os.path.join(os.path.dirname(run.HERE),
                               "BENCHMARK.json")) as f:
            per_layer = [m["name"] for m in json.load(f)["per_layer"]]
        for w in run.WORKLOADS:
            with self.subTest(workload=w), tempfile.NamedTemporaryFile(
                    dir=run.BUILD_DIR, suffix=".tsv") as trace:
                _, plain = child(w, 2)
                _, traced = child(w, 2, "--trace-out", trace.name)
                for k in SIM_KEYS:
                    self.assertEqual(plain[k], traced[k], k)
                self.assertEqual(plain["failed"], 0)
                spans, counters = trace_report.load(trace.name)
                by_name, _ = trace_report.analyze(spans)
                metrics = trace_report.per_layer_metrics(
                    by_name, counters, 1.0, 1.0)
                self.assertEqual(sorted(metrics), sorted(per_layer))
                self.assertEqual(by_name["bench.op"]["count"],
                                 traced["ops"])

    def test_self_time_excludes_child_spans(self):
        S = trace_report.Span
        spans = [S(0, -1, 0, "bench.op", 0, 1000),
                 S(1, 0, 0, "runtime.drain", 100, 700),
                 S(2, 1, 0, "runtime.enqueueKernel", 200, 300)]
        by_name, by_layer = trace_report.analyze(spans)
        self.assertAlmostEqual(by_name["bench.op"]["self_s"], 400e-9)
        self.assertAlmostEqual(by_name["runtime.drain"]["self_s"], 500e-9)
        # The nested runtime span is not counted twice in the layer.
        self.assertAlmostEqual(by_layer["runtime"]["busy_s"], 600e-9)
        self.assertEqual(by_layer["runtime"]["count"], 2)


if __name__ == "__main__":
    unittest.main()
