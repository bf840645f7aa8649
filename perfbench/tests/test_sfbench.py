#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/tests/test_sfbench.py

Builds sfbench (as perfbench/run.py does), then checks that:
  - a tiny-size pass of every workload succeeds, untraced and traced;
  - every metric name and unit in BENCHMARK.json is reported, and no
    other;
  - a deliberately perturbed reference makes runs fail (ok_frac < 1);
  - the benchmark refuses to run without the simulator sources.
Scratch files go under the benchmark build tree.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SCRATCH = os.path.join(run.build_dir(), "selftest")
GOLDEN = os.path.join(ROOT, "tests", "golden", "fig1_n64_quick.json")


def sfbench(exe, workload, trace=0, extra=()):
    """One tiny run; returns the parsed result line."""
    args = [exe, "--workload", workload, "--seed", "1", "--seconds",
            "0.5", "--trace", str(trace), "--scale", "tiny",
            "--golden", GOLDEN,
            "--trace-out", os.path.join(SCRATCH, "traces")]
    p = subprocess.run(args + list(extra), capture_output=True,
                       text=True, timeout=170)
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        os.makedirs(SCRATCH, exist_ok=True)

    def assert_metrics(self, result, kind):
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_every_workload_tiny(self):
        for w in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = sfbench(self.exe, w["name"], trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assert_metrics(r, kind)
                    if trace == 0:
                        self.assertEqual(
                            r["metrics"]["ok_frac"]["value"], 1)

    def test_perturbed_reference_fails(self):
        perturb = {
            "sf1024_latency_curve": ("cycles", lambda v: v + 1),
            "fig1_quick_sweep": ("digest", lambda v: "0" * len(v)),
        }
        for workload, (field, change) in perturb.items():
            with self.subTest(workload=workload):
                ref = os.path.join(SCRATCH, workload + ".ref.json")
                if os.path.exists(ref):
                    os.remove(ref)
                sfbench(self.exe, workload, extra=["--record", ref])
                clean = sfbench(self.exe, workload,
                                extra=["--reference", ref])
                self.assertTrue(clean["correct"])
                self.assertEqual(clean["failed"], 0)

                with open(ref) as f:
                    doc = json.load(f)
                entry = doc["workloads"][workload]["tiny/1"][0]
                entry[field] = change(entry[field])
                with open(ref, "w") as f:
                    json.dump(doc, f)
                bad = sfbench(self.exe, workload,
                              extra=["--reference", ref])
                self.assertFalse(bad["correct"])
                self.assertGreater(bad["failed"], 0)
                self.assertLess(bad["metrics"]["ok_frac"]["value"], 1)

    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds",
                      "1", "--trace", "0"],
                     ["--workload", "fig1_quick_sweep"]):
            p = subprocess.run([self.exe] + args, capture_output=True,
                               text=True, timeout=60)
            self.assertEqual(p.returncode, 2)
            self.assertEqual(p.stdout, "")

    def test_refuses_without_sources(self):
        lone = os.path.join(SCRATCH, "lone")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(BENCH, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run(
            SPEC["command"] +
            ["--workload", "sf1024_latency_curve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=lone, env=env, capture_output=True, text=True,
            timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
