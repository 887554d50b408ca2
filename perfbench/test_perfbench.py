"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

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
sys.path.insert(0, os.path.join(ROOT, "src"))

import gauge  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from quivercount import classify as classify_fn  # noqa: E402
from quivercount.quiver import ExchangeQuiver, mutate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (W.bfs_inputs, W.classify_inputs):
            self.assertEqual(make(7, W.TINY), make(7, W.TINY))

    def test_other_seed_relabels_but_keeps_answers(self):
        for make in (W.bfs_inputs, W.classify_inputs):
            a, b = make(1, W.TINY), make(2, W.TINY)
            self.assertEqual([label for label, _ in a], [label for label, _ in b])
            self.assertNotEqual([m for _, m in a], [m for _, m in b])

    def test_relabelled_seeds_match_the_library_classes(self):
        from quivercount.canonical import canonical_key
        from quivercount.mutation_class import seed_cycle, seed_dynkin_d

        for label, b in W.bfs_inputs(3, W.TINY):
            lib_seed = seed_cycle(*label[1:]) if label[0] == "atilde" else seed_dynkin_d(label[1])
            self.assertEqual(canonical_key(ExchangeQuiver(b)), canonical_key(lib_seed))

    def test_type_d_walks_are_never_positive(self):
        inputs = W.classify_inputs(5, W.TINY)
        negatives = [b for label, b in inputs if label is None]
        self.assertEqual(len(negatives), W.TINY.d_walks_per_rank * len(W.TINY.walk_ranks))
        for b in negatives:
            self.assertIsNone(classify_fn(ExchangeQuiver(b)))


class GeneratorMutation(unittest.TestCase):
    def test_double_arrow(self):
        self.assertEqual(W.mutate_matrix(((0, 2), (-2, 0)), 0), ((0, -2), (2, 0)))

    def test_path_to_oriented_triangle(self):
        path = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))  # 0 -> 1 -> 2
        triangle = ((0, -1, 1), (1, 0, -1), (-1, 1, 0))  # 0 -> 2 -> 1 -> 0
        self.assertEqual(W.mutate_matrix(path, 1), triangle)
        self.assertEqual(W.mutate_matrix(triangle, 1), path)

    def test_double_then_single_arrow(self):
        b = ((0, 2, 0), (-2, 0, 1), (0, -1, 0))  # 0 => 1 -> 2
        self.assertEqual(W.mutate_matrix(b, 1), ((0, -2, 2), (2, 0, -1), (-2, 1, 0)))

    def test_sink_mutation_reverses_arrows(self):
        b = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))  # 0 -> 1 <- 2
        self.assertEqual(W.mutate_matrix(b, 1), ((0, -1, 0), (1, 0, 1), (0, -1, 0)))

    def test_agrees_with_the_library_on_walks(self):
        for _, b in W.classify_inputs(9, W.TINY)[:40]:
            for k in range(len(b)):
                self.assertEqual(W.mutate_matrix(b, k), mutate(ExchangeQuiver(b), k).b)


class Tracing(unittest.TestCase):
    def test_hooks_reach_modules_and_are_undone(self):
        import importlib

        self.assertTrue(callable(classify_fn))
        module = importlib.import_module("quivercount.classify")
        self.assertIsNot(module, classify_fn)
        before = {(m, a): getattr(*tracing._owner(m, a)) for m, a, _ in tracing.HOOKS}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (m, a), fn in before.items():
                self.assertIsNot(getattr(*tracing._owner(m, a)), fn)
        finally:
            tracer.uninstall()
        for (m, a), fn in before.items():
            self.assertIs(getattr(*tracing._owner(m, a)), fn)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.spans.extend([
            ["classify.classify", 0.0, 10.0, -1, 0],
            ["canonical.key_rooted", 2.0, 5.0, 0, 0],
            ["canonical.key_rooted", 6.0, 7.0, 0, 0],
        ])
        stats = tracer.summary(20.0)
        self.assertEqual(stats["classify.classify"]["self_s"], 6.0)
        self.assertEqual(stats["canonical.key_rooted"]["calls"], 2)
        self.assertEqual(stats["classify.classify"]["share"], 0.3)


class Gauge(unittest.TestCase):
    def test_piece_scale_comes_from_the_samples_around_it(self):
        g = gauge.Gauge(gauge.SEARCH)
        nominal = gauge.SEARCH.nominal_s
        g.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        g.times = [nominal * t for t in (1, 1, 2, 2, 2, 9)]
        # a piece starting at 2.5 lies between the samples 1 and 2
        self.assertAlmostEqual(g.factor_at(2.5), 1 / 1.5)
        self.assertAlmostEqual(g.factor_at(5.5), 1 / 5.5)
        # before the first sample only the next one counts
        self.assertAlmostEqual(g.factor_at(0.5), 1.0)

    def test_sample_times_a_burst(self):
        g = gauge.Gauge(gauge.FRACTIONS)
        g.mark(0)
        g.mark(1)  # too soon after the first: no sample
        self.assertEqual(len(g.times), 1)
        self.assertGreater(g.spent, g.times[0])
        # after a long gap the burst grows to its share of the gap
        g.ends[-1] -= 2.0
        spent = g.spent
        g.sample()
        self.assertGreaterEqual(g.spent - spent, 2.0 * gauge.SAMPLE_SHARE)


class Command(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def result(self, proc):
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_metric_names_and_units_match_the_spec(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            for name in W.WORKLOADS:
                proc = run_bench("--workload", name, "--seed", "1", "--seconds", "0.01",
                                 "--trace", trace, "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = self.result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, expected)
                for metric in got:
                    self.assertRegex(metric, NAME)

    def test_a_wrong_expected_value_fails_the_run(self):
        for name in W.WORKLOADS:
            proc = run_bench("--workload", name, "--seed", "1", "--seconds", "0.01",
                             "--tiny", "--inject-fault")
            self.assertEqual(proc.returncode, 1, proc.stderr)
            res = self.result(proc)
            self.assertFalse(res["correct"])
            self.assertGreater(res["failed"] / res["attempted"], 0)

    def test_fails_without_the_library(self):
        os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench-out")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bfs-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

if __name__ == "__main__":
    unittest.main()
