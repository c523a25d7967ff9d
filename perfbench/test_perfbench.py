"""Tests of the time-to-solution benchmark, on the tiny mode of each workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first run builds the benchmark.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.tmp = tempfile.mkdtemp(dir=os.path.join(run.BUILD, "tmp"))
        cls.spec = spec()
        # Every workload the program offers, including any that
        # BENCHMARK.json leaves out of the measured set.
        cls.workloads = run.WORKLOADS

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_tiny(self, workload, trace, seed=7, spans=None):
        cmd = [self.exe, "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--tiny"]
        if spans:
            cmd += ["--spans", spans]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in self.workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    res = self.run_tiny(w, trace)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_metric_and_workload_names(self):
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["name"], NAME)
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)

    def test_span_self_times_sum_to_parent(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                path = os.path.join(self.tmp, w + ".spans.json")
                self.run_tiny(w, 1, spans=path)
                with open(path) as f:
                    spans = json.load(f)
                self.assertTrue(spans)
                dur = [s["end"] - s["begin"] for s in spans]
                kids = [[] for _ in spans]
                for i, s in enumerate(spans):
                    if s["parent"] >= 0:
                        p = spans[s["parent"]]
                        self.assertLessEqual(p["begin"], s["begin"])
                        self.assertLessEqual(s["end"], p["end"])
                        kids[s["parent"]].append(i)
                for i, s in enumerate(spans):
                    self.assertAlmostEqual(
                        s["self"] + sum(dur[k] for k in kids[i]), dur[i],
                        delta=1e-6)
                    self.assertGreaterEqual(s["self"], -1e-6)

    def test_simulated_metrics_repeat_exactly(self):
        # The service's right-hand sides come from the seed and its solves
        # run on the device, so only a repeated seed must repeat there.
        sim = ("tts_sim_s", "resolve_sim_s", "sim_per_req_s",
               "peak_device_mb", "converged_frac")
        for w in self.workloads:
            with self.subTest(workload=w):
                a = self.run_tiny(w, 0, seed=1)["metrics"]
                b = self.run_tiny(w, 0, seed=1 if w == "service_sweep" else 2)
                for k in sim:
                    self.assertEqual(a[k]["value"], b["metrics"][k]["value"], k)

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(self.tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "maxwell_fat",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("metrics", p.stdout)


if __name__ == "__main__":
    unittest.main()
