#!/usr/bin/env python3
"""The benchmark's own test: tiny-size runs of every workload.

    python3 perfbench/test_perfbench.py

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and a traced run every per-layer
metric, that the exact numbers (speedup_geomean, training transitions,
search counts) repeat across two runs of one seed, that another seed makes
different inputs, and that no job failed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace=0):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        raise AssertionError("%s seed %d exited %d:\n%s" % (workload, seed, result.returncode,
                                                            result.stderr[-3000:]))
    lines = result.stdout.strip().splitlines()
    tagged = {line.split(": ", 1)[0]: json.loads(line.split(": ", 1)[1])
              for line in lines if line.startswith(("provenance: ", "exact: "))}
    return json.loads(lines[-1]), tagged["provenance"], tagged["exact"]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Tiny_runs(unittest.TestCase):
    def check_workload(self, workload):
        end_to_end, per_layer = contract()
        first, provenance, exact = run(workload, 1)
        again, provenance_again, exact_again = run(workload, 1)
        other, provenance_other, _ = run(workload, 4)
        traced, _, exact_traced = run(workload, 1, trace=1)

        for result in (first, again, other, traced):
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)  # failed_ratio is 0
        for result in (first, again, other):
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, end_to_end)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        self.assertEqual({n: m["unit"] for n, m in traced["metrics"].items()}, per_layer)

        self.assertTrue(exact)
        self.assertEqual(exact, exact_again)
        self.assertEqual(exact, exact_traced)
        self.assertEqual(first["metrics"]["speedup_geomean"]["value"],
                         again["metrics"]["speedup_geomean"]["value"])
        self.assertEqual(provenance["inputs_digest"], provenance_again["inputs_digest"])
        self.assertNotEqual(provenance["inputs_digest"], provenance_other["inputs_digest"])
        for key in ("nproc", "compiler", "build_type", "git_sha", "seed"):
            self.assertIn(key, provenance)

    def test_xrlflow_transformers(self):
        self.check_workload("xrlflow_transformers")

    def test_search_zoo(self):
        self.check_workload("search_zoo")

    def test_serve_mixed(self):
        self.check_workload("serve_mixed")


if __name__ == "__main__":
    unittest.main()
