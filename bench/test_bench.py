"""Self-tests for the benchmark; standard library only.

    python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer as tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def setUpModule():
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    run.fresh_import()


class Names(unittest.TestCase):
    def test_every_metric_has_a_valid_name_and_unit(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)

    def test_benchmark_json_lists_what_the_runner_emits(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class Inputs(unittest.TestCase):
    def edges(self, workload, seed):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            variants = run.build_inputs(workload, seed, Path(tmp))
            graphs = [g for v in variants for g in (v["largest"], *v["sweep"].values())]
            return [tuple(g.edges()) for g in graphs]

    def test_seed_decides_the_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.edges(workload, 3), self.edges(workload, 3))
                self.assertNotEqual(self.edges(workload, 3), self.edges(workload, 4))

    def test_fuzz_runs_with_different_seeds_share_no_trials(self):
        chunk = max(spec.chunk for spec in run.WORKLOADS.values() if spec)
        self.assertGreater(run.trial_base(1) - run.trial_base(0), 1000 * chunk)


class Checks(unittest.TestCase):
    def test_path_problem_catches_bad_decompositions(self):
        edges = {(0, 1), (1, 2), (2, 3)}
        self.assertIsNone(run.path_problem(edges, 4, [(0, 1, 2, 3)]))
        self.assertIn("uncovered", run.path_problem(edges, 4, [(0, 1, 2)]))
        self.assertIn("twice", run.path_problem(edges, 4, [(0, 1, 2), (1, 2, 3)]))
        self.assertIn("not in graph", run.path_problem(edges, 4, [(0, 2)]))
        self.assertIn("exceed", run.path_problem(edges, 4, [(0, 1), (1, 2), (2, 3)]))


class Tracing(unittest.TestCase):
    def traced_fuzz(self, **kwargs):
        cli = sys.modules["gallai.cli"]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            report = cli.run_fuzz(trials=8, seed=5, **kwargs)
            wall = perf_counter() - t0
        finally:
            tracer.remove()
        self.assertEqual(report.failures, [])
        return tracer, wall

    def test_self_times_are_nonnegative_and_totals_fit_the_wall_time(self):
        for kwargs in ({"max_n": 60}, {"max_n": 30, "densify": True},
                       {"max_n": 14, "oracle_max_edges": 12}):
            with self.subTest(**kwargs):
                tracer, wall = self.traced_fuzz(**kwargs)
                self.assertEqual(tracer.stack, [])
                for name, layer in tracer.layers.items():
                    self.assertGreaterEqual(layer.self_s, -1e-9, name)
                    self.assertLessEqual(layer.s, wall, name)
                    self.assertLessEqual(layer.self_s, layer.s + 1e-9, name)
                self.assertLessEqual(sum(L.self_s for L in tracer.layers.values()), wall)
                m = tracer.metrics()
                self.assertAlmostEqual(
                    m["decompose.s"], m["decompose.self_s"] + m["decompose.graph_s"], places=6
                )
                self.assertGreater(m["graph.components.vertices"], 0)

    def test_every_site_is_restored(self):
        originals = {(o, a): getattr(tracing._owner(o), a) for o, a, _l in tracing.SITES}
        self.traced_fuzz(max_n=20)
        tracing.assert_untraced()
        for (o, a), fn in originals.items():
            self.assertIs(getattr(tracing._owner(o), a), fn, f"{o}.{a}")

    def test_slope_and_percentiles(self):
        self.assertAlmostEqual(tracing.loglog_slope([(n, 3e-6 * n**2) for n in (10, 20, 80)]), 2.0)
        self.assertEqual(tracing.loglog_slope([(10, 1.0), (10, 2.0)]), 0.0)
        self.assertEqual(tracing.percentile(list(range(1, 101)), 99), 99)
        self.assertEqual(tracing.percentile([], 50), 0.0)


class Runner(unittest.TestCase):
    def test_traced_run_reports_every_layer_metric_and_leaves_no_wrapper(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "fuzz-dense", "--seed", "2",
                             "--seconds", "1", "--trace", "1"])
        self.assertEqual(code, 0)
        tracing.assert_untraced()
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        self.assertGreater(result["metrics"]["generate.calls"]["value"], 0)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copytree(run.BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "scale", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
