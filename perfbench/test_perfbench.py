"""Tests of the benchmark itself: the own MN, the output checkers and the
smoke mode.  Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


class OwnMN(unittest.TestCase):
    def test_partition_counts(self):
        self.assertEqual([len(checks.partitions(n)) for n in range(13)],
                         [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77])

    def test_row_and_column_orthogonality(self):
        for n in range(1, 9):
            labels = checks.partitions(n)
            for a in labels:
                for b in labels:
                    rows = sum(checks.class_size(mu) * checks.chi(a, mu) * checks.chi(b, mu)
                               for mu in labels)
                    self.assertEqual(rows, math.factorial(n) if a == b else 0, (a, b))
                    cols = sum(checks.chi(r, a) * checks.chi(r, b) for r in labels)
                    self.assertEqual(cols, checks.z(a) if a == b else 0, (a, b))

    def test_closed_forms_match_mn(self):
        for n in range(1, 8):
            for shape in ((n,), (1,) * n):
                for d in range(n + 1):
                    for delta in checks.partitions(d):
                        by_mn = Fraction(
                            math.factorial(n) * checks.chi(shape, checks.pad(delta, n)),
                            checks.z(delta) * checks.dim(shape) * math.factorial(n - d))
                        self.assertEqual(checks.phi(shape, delta), by_mn, (shape, delta))


def _bump(obj, path):
    """Copy of obj with the coefficient at path raised by 1."""
    out = copy.deepcopy(obj)
    *head, last = path
    target = out
    for key in head:
        target = target[key]
    target[last] = str(Fraction(target[last]) + 1)
    return out


class Checkers(unittest.TestCase):
    """Each checker accepts the program's output and rejects it with any
    one coefficient changed by 1."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        cls.env = dict(os.environ, PYTHONPATH=run.SRC,
                       DIAGRAM_OPS_CACHE_DIR=os.path.join(cls.tmp, "cache"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def cli(self, argv):
        proc = subprocess.run([sys.executable, "-m", "diagram_ops.cli", "--json"] + list(argv),
                              capture_output=True, text=True, env=self.env, cwd=self.tmp)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout)

    def assert_rejects_each_bump(self, check, out, paths):
        self.assertIsNone(check(out))
        self.assertTrue(paths)
        for path in paths:
            self.assertIsNotNone(check(_bump(out, path)), path)

    def assert_op(self, op, field):
        out = self.cli(op.argv)
        paths = [(field, i, "coef") for i in range(len(out[field]))] if field else [("value",)]
        self.assert_rejects_each_bump(lambda o: run.check_output(op, json.dumps(o)), out, paths)

    def test_mult(self):
        one = Fraction(1)
        self.assert_op(workloads.mult_op([((2,), one)], [((2, 1), one)]), "result")
        self.assert_op(workloads.mult_op([((2,), Fraction(1, 2)), ((1, 1), one)],
                                         [((3,), one)]), "result")

    def test_wapply(self):
        self.assert_op(workloads.wapply_op((2,), [((3,), Fraction(1)),
                                                  ((2, 1), Fraction(1, 2))]), "terms")

    def test_schur(self):
        self.assert_op(workloads.schur_op((3, 2, 1)), "terms")

    def test_hurwitz(self):
        self.assert_op(workloads.hurwitz_op([(2, 1, 1), (2, 1, 1), (3, 1), (2, 2)]), None)

    def test_evolve(self):
        self.assert_op(workloads.evolve_op([(2,), (1, 1)], 3, 2), "terms")

    def test_chartable(self):
        out = self.cli(("chartable", "4"))
        paths = [("rows", label, j) for label in out["rows"] for j in range(len(out["order"]))]
        self.assert_rejects_each_bump(lambda o: checks.check_chartable(4, o), out, paths)


def _bench(cwd, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(argv),
                          capture_output=True, text=True, cwd=cwd, timeout=170)


class Smoke(unittest.TestCase):
    def test_every_workload_runs_and_checks(self):
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]),
                         sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = _bench(run.ROOT, "--workload", name, "--seed", "7",
                                  "--seconds", "0", "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
        self.assertFalse(os.path.exists(run.RUNS_DIR))

    def test_same_seed_same_round(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_round(name, 3), workloads.make_round(name, 3))
            self.assertNotEqual(workloads.make_round(name, 3), workloads.make_round(name, 4))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench(bare, "--workload", "products", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
