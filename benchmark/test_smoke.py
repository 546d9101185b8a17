#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny scale (under a minute).

  python3 benchmark/test_smoke.py

For every workload it runs benchmark/run.py with tracing off (twice, so
the second run is checked against the first) and on, and checks that the
result line is well-formed and correct, that it names exactly the metrics
BENCHMARK.json declares with their units, that the decision digest of the
default seed is the recorded one, and that the trace is well-formed.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}, spec


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, kind):
        units, _ = declared(kind)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         units)

    def test_spec_matches_run_py(self):
        e2e, spec = declared("end_to_end")
        layers, _ = declared("per_layer")
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)

    def test_workloads(self):
        for workload in run.ALL_WORKLOADS:
            with self.subTest(workload=workload):
                for _ in range(2):
                    self.check_result(
                        bench(workload, run.DEFAULT_SEED, 0), "end_to_end")
                self.check_result(bench(workload, 2, 0), "end_to_end")
                self.check_result(bench(workload, 2, 1), "per_layer")
                directory = os.path.join(run.WORK, f"{workload}-tiny-s2")
                self.assertEqual(
                    run.trace_problems(
                        os.path.join(directory, "trace.json")), [])
                with open(os.path.join(
                        run.WORK, f"{workload}-tiny-s{run.DEFAULT_SEED}",
                        "decisions.json")) as f:
                    self.assertEqual(json.load(f)["digest"],
                                     run.expected_digest(workload, "tiny"))


if __name__ == "__main__":
    unittest.main()
