"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import jobs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SEED = 3


def small(workload: str, seed: int = SEED):
    """A short job list of the workload, so that a traced pass is quick."""
    data = inputs.make(workload, seed)
    if workload == "certify2d":
        return data[:2]
    if workload == "solve":
        return [data[0], data[3]]
    return {**data, "jobs": data["jobs"][:2]}


class TracedRuns(unittest.TestCase):
    def traced(self, workload, data, workdir=None):
        cls = jobs.WORKLOADS[workload]
        verifier = worker.Verifier(cls(data, workdir))
        spans = run.OUT / f"test-spans-{workload}.jsonl"
        run.OUT.mkdir(exist_ok=True)
        try:
            result = worker.trace_loop(cls, data, workdir, verifier, 0, str(spans))
        finally:
            spans.unlink(missing_ok=True)
        return result, verifier

    def test_exact_counts_repeat_and_outputs_match(self):
        for workload in ("certify2d", "solve", "star"):
            with self.subTest(workload=workload):
                first, verifier = self.traced(workload, small(workload))
                second, _ = self.traced(workload, small(workload))
                # traced outputs were checked against the untraced pass's digests
                self.assertEqual(first["failed"], 0, verifier.problems)
                exact = {k: v for k, v in first["metrics"].items()
                         if k.endswith(".calls") or k in (
                             "weyl.term_pairs", "abelian.terms.top_grade",
                             "scalars.coeff_bits.max")}
                self.assertGreater(exact["weyl.circ.calls"], 0)
                self.assertEqual(exact, {k: second["metrics"][k] for k in exact})

    def test_cli_traced_in_process_matches_processes(self):
        data = inputs.make("cli", SEED)
        workdir = run.OUT / "test-cli"
        workdir.mkdir(parents=True, exist_ok=True)
        old = dict(os.environ)
        os.environ.update(run.child_env())
        try:
            run.write_manifests(workdir, data)
            wl = jobs.Cli(data, str(workdir))
            verifier = worker.Verifier(wl)
            for case in wl.cases:
                self.assertTrue(verifier.verify(case, wl.run(case)), verifier.problems)
            result, _ = self.traced("cli", data, str(workdir))
        finally:
            os.environ.clear()
            os.environ.update(old)
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["metrics"]["twodim.g_coeff.calls"], 0)
        self.assertGreater(result["metrics"]["cli.startup_s"], 0)

    def test_tracer_restores_the_library(self):
        before = fedosov_names()
        self.traced("star", small("star"))
        self.assertEqual(before, fedosov_names())


def fedosov_names():
    import fedosov
    mods = [m for n, m in sys.modules.items() if n == "fedosov" or n.startswith("fedosov.")]
    out = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (tracing.GaussianRational, tracing.BasePolynomial, tracing.WeylAlgebra):
        out.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    assert fedosov
    return out


class Failures(unittest.TestCase):
    def loop(self, wl, seconds=0.5):
        return worker.run_loop(wl, worker.Verifier(wl), seconds, SEED)

    def test_runs_whole_rounds_and_every_pause(self):
        wl = jobs.Solve(small("solve"))
        pauses = []
        result = worker.run_loop(wl, worker.Verifier(wl), 0.3, SEED, lambda: pauses.append(1), 5)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], result["rounds"] * len(wl.cases))
        self.assertEqual(len(pauses), 5)

    def test_corrupted_output_counts_as_failed(self):
        wl = jobs.Star(small("star"))
        honest = wl.run

        def corrupt(case):
            out = dict(honest(case))
            out[0] = out[0] + jobs.BasePolynomial.constant(2, 1)
            return out

        wl.run = corrupt
        result = self.loop(wl)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_digest_mismatch_counts_as_failed(self):
        wl = jobs.Solve(small("solve"))
        ref = {case[0]["id"]: "0" * 64 for case in wl.cases}
        verifier = worker.Verifier(wl, ref)
        case = wl.cases[0]
        self.assertFalse(verifier.verify(case, wl.run(case)))

    def test_exception_counts_as_failed(self):
        wl = jobs.Certify2d(small("certify2d"))

        def boom(case):
            raise ValueError("injected")

        wl.run = boom
        result = self.loop(wl, 0.05)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["times"], [])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in inputs.WORKLOADS:
            self.assertEqual(inputs.make(w, 7), inputs.make(w, 7))
            self.assertNotEqual(inputs.make(w, 7), inputs.make(w, 8))

    def test_curvature_screens(self):
        self.assertTrue(inputs.constant_curvature_is_zero(2, {(1, 1, 1): 1}))
        self.assertFalse(inputs.constant_curvature_is_zero(2, {(1, 1, 1): 1, (2, 2, 2): 1}))
        self.assertFalse(inputs.linear_curvature_is_zero(2, {(1, 1, 1): {2: 1}}))

    def test_tail_percentile_is_fixed(self):
        self.assertEqual(metrics.job_metrics([1.0] * 10 + [2.0] * 10, "star")["job_s.tail"], 2.0)
        self.assertEqual(metrics.job_metrics([3.0, 1.0, 2.0, 4.0], "cli")["tail_percentile"], 75)
        self.assertEqual(metrics.percentile([3, 1, 2, 4], 75), 3)
        self.assertEqual(metrics.beyond(100, 90), 10)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         {k: v[:2] for k, v in metrics.PER_LAYER.items()})

    def test_reference_covers_every_workload(self):
        table = json.loads((HERE / "reference.json").read_text())
        self.assertEqual(sorted(table), sorted(inputs.WORKLOADS))

    def test_fails_without_the_program(self):
        bare = run.OUT / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
