#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout.  Every workload runs at a tiny scale
for one second, untraced and traced.  The tests check that each run
prints every metric named in BENCHMARK.json with its unit, that honest
runs pass their answer checks, and that each injected wrong answer
makes the checks fail.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace="0", inject=None, seed=3, cwd="."):
    cmd = [sys.executable, os.path.abspath("perfbench/run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace, "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=300)
    return r


def result(r):
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


class Metrics(unittest.TestCase):
    def check(self, res, declared, positive):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(result(run(w)), BENCH["end_to_end"], positive=True)
                report = ".perfbench_out/%s-seed3-trace0-tiny.json" % w
                with open(report) as f:
                    detail = json.load(f)
                self.assertEqual(detail["seed"], 3)
                for k in ("nproc", "ocaml_version", "git_commit", "lib_bin_bench_lines"):
                    self.assertIn(k, detail["host"])

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(result(run(w, trace="1")), BENCH["per_layer"], positive=False)
                with open(".perfbench_out/%s-seed3-trace1-tiny.spans.json" % w) as f:
                    spans = json.load(f)
                names = {s["name"] for p in spans["processes"] for s in p["spans"]}
                self.assertTrue({"solve", "load"} <= names, names)


class AnswerChecks(unittest.TestCase):
    def test_injected_wrong_answers_fail(self):
        for w, kind in [("gimp_batch", "solution"), ("gimp_batch", "linked"),
                        ("gimp_batch", "object"), ("emacs_fi_solve", "solution"),
                        ("vortex_watch", "served")]:
            with self.subTest(workload=w, inject=kind):
                res = result(run(w, inject=kind))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.abspath(".perfbench_out/bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
