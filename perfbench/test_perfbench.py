#!/usr/bin/env python3
"""The benchmark's own test: smoke mode runs every workload (untraced and
traced, small inputs) with all correctness and determinism checks, and the
driver refuses to run with a simulator knob set.

    python3 perfbench/test_perfbench.py
"""
import json
import os
import pathlib
import subprocess
import sys
import unittest

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def run(*args, env=None):
    return subprocess.run([sys.executable, str(RUN), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    def test_smoke_runs_every_workload_and_check(self):
        p = run("--smoke")
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for w in ("dos_flood", "lite_population", "s3_mixed"):
            self.assertIn(f"== {w} ", p.stdout)
            self.assertEqual(result["metrics"][f"{w}.trace.dropped"]["value"], 0)
        self.assertEqual(
            result["metrics"]["dos_flood.sec.honest_blocked"]["value"], 0)
        self.assertNotIn("FAILED", p.stdout)

    def test_refuses_simulator_knobs(self):
        env = dict(os.environ, BS_SIM_LANES="off")
        p = run("--smoke", env=env)
        self.assertEqual(p.returncode, 2)
        self.assertIn("BS_SIM_LANES", p.stderr)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
