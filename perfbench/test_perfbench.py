#!/usr/bin/env python3
"""The benchmark's own tests: seeded inputs, metric names/units/directions,
and provenance. They drive perfbench/run.py (which builds on first use).

Run from the repository root:
    python3 perfbench/test_perfbench.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["stills-640", "video-1080p", "serve-4stream", "tn-sim"]


def run(*args):
    """stdout lines of one run.py call, parsed as JSON."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return [json.loads(line) for line in done.stdout.strip().splitlines()]


def digest(workload, seed):
    return run("--workload", workload, "--seed", str(seed),
               "--digest")[-1]["input_digest"]


class InputDigestTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = digest(workload, 3)
                self.assertEqual(first, digest(workload, 3))
                self.assertNotEqual(first, digest(workload, 4))


class EmittedMetricsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, trace, section):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                meta, result = run("--workload", workload, "--seed", "5",
                                   "--seconds", "2", "--trace", trace)[-2:]
                self.assertTrue(result["correct"], result)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                wanted = self.spec[section]
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in wanted})
                for m in wanted:
                    emitted = result["metrics"][m["name"]]
                    self.assertEqual(emitted["unit"], m["unit"], m["name"])
                    self.assertIsInstance(emitted["value"], (int, float))
                    defined = meta["metric_defs"][m["name"]]
                    self.assertEqual(defined["unit"], m["unit"], m["name"])
                    self.assertEqual(defined["better"], m["better"],
                                     m["name"])
                provenance = meta["provenance"]
                self.assertTrue(provenance["git_sha"])
                self.assertEqual(provenance["hardware_threads"],
                                 os.cpu_count())
                self.assertEqual(meta["input_digest"],
                                 digest(workload, 5))

    def test_end_to_end_metrics(self):
        self.check("0", "end_to_end")

    def test_per_layer_metrics(self):
        self.check("1", "per_layer")


if __name__ == "__main__":
    unittest.main()
