#!/usr/bin/env python3
"""The benchmark's own tests, on a held-out seed.

    python3 perfbench/test_perfbench.py

HELD_OUT_SEED was never used to size or tune a workload.  On it, every
workload must pass the benchmark's correctness checks in both modes and
report exactly the metrics BENCHMARK.json names; the benchmark must also
refuse to run, without printing a result, when the simulator sources are
missing.  Takes a few minutes (one short run per workload and mode).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
HELD_OUT_SEED = "4242"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", HELD_OUT_SEED,
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class HeldOutSeed(unittest.TestCase):
    def check(self, workload, trace, section):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines[:-1]))
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        names = [m["name"] for m in SPEC[section]]
        self.assertEqual(list(result["metrics"]), names)
        for metric in SPEC[section]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"])
        return lines, result

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                _, result = self.check(w["name"], 0, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_matches_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                digests = []
                for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                    lines, _ = self.check(w["name"], trace, section)
                    digests += [l.split()[3] for l in lines
                                if l.startswith("simulated outputs: digest")]
                self.assertEqual(len(digests), 2)
                self.assertEqual(digests[0], digests[1])


class MissingSources(unittest.TestCase):
    def test_refuses_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
