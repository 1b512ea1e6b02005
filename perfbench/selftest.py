#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
They live here, not in the repository's test suite, because they test
the yardstick rather than the program; the smoke and traced runs take
about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(name: str):
    return json.loads((run.REFERENCE_DIR / f"{name}.json").read_text())


def _perturb(value):
    """Change the first leaf of ``value``: a float by one part in 10^6,
    an int by one, a string by a suffix."""
    if isinstance(value, float):
        return value * (1 + 1e-6) if value else 1e-300, True
    if isinstance(value, int) and not isinstance(value, bool):
        return value + 1, True
    if isinstance(value, str):
        return value + "?", True
    if isinstance(value, dict):
        for key in sorted(value):
            value[key], done = _perturb(value[key])
            if done:
                return value, True
    if isinstance(value, list):
        for index, item in enumerate(value):
            value[index], done = _perturb(item)
            if done:
                return value, True
    return value, False


class ReferenceCheck(unittest.TestCase):
    def test_exact_outputs_pass(self):
        for name, rows in (("paper-grid", True), ("capacity-plan", False)):
            reference = _load(name)
            checker = run.Checker(reference, rows)
            for kind, outputs in reference.items():
                checker.record(kind, copy.deepcopy(outputs), [])
            self.assertGreater(checker.attempted, 0)
            self.assertEqual(checker.failed, 0, checker.messages)

    def test_perturbed_reference_fails(self):
        for name, rows in (("paper-grid", True), ("capacity-plan", False),
                           ("serve-faults", False),
                           ("continuous-kv", False)):
            for kind in _load(name):
                reference = _load(name)
                outputs = copy.deepcopy(reference)
                reference[kind], changed = _perturb(reference[kind])
                self.assertTrue(changed, f"{name}/{kind}: nothing to perturb")
                checker = run.Checker(reference, rows)
                for key, value in outputs.items():
                    checker.record(key, value, [])
                self.assertGreater(checker.failed / checker.attempted, 0.0,
                                   f"{name}/{kind}")

    def test_invariant_problem_fails(self):
        checker = run.Checker({}, False)
        checker.record("plan", {"k": 8}, ["served + dropped != offered"])
        self.assertEqual((checker.attempted, checker.failed), (1, 1))

    def test_later_cycle_must_repeat_the_first(self):
        checker = run.Checker({}, False)
        checker.record("single", {"p95": 1.0}, [])
        checker.record("single", {"p95": 1.0 + 1e-6}, [])
        self.assertEqual((checker.attempted, checker.failed), (2, 1))


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(__import__("workloads").WORKLOADS))


class Wrappers(unittest.TestCase):
    def test_install_and_remove_restores_every_binding(self):
        from repro.core import latency, optimizer
        from repro.core.config import LiaConfig
        from repro.core.estimator import LiaEstimator
        from repro.hardware.system import get_system
        from repro.models.sublayers import Stage
        from repro.models.zoo import get_model
        from repro.serving import scheduler
        import workloads

        # Original module bindings, including copies made by
        # ``from ... import``, and a class attribute.
        before = [(optimizer, "optimal_policy"),
                  (scheduler, "optimal_policy"),
                  (latency, "layer_latency"), (latency, "sublayer_cost")]
        before = [(owner, name, owner.__dict__[name])
                  for owner, name in before]
        before.append((LiaEstimator, "estimate",
                       LiaEstimator.__dict__["estimate"]))
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            self.assertEqual(installation.missing, {})
            workloads.cold_reset()
            optimizer.optimal_policy(get_model("opt-30b"), Stage.DECODE,
                                     3, 77, get_system("spr-a100"),
                                     LiaConfig())
        finally:
            installation.remove()
        self.assertEqual(tracing.wrappers_remaining(), [])
        for owner, name, value in before:
            self.assertIs(owner.__dict__[name], value)
        self.assertEqual(tracer.stats["optimizer.optimal_policy"].calls, 1)
        self.assertEqual(tracer.stats["latency.layer_latency"].calls, 64)

    def test_traced_run_leaves_no_wrapper(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "capacity-plan", "--seconds",
                             "0", "--trace", "1"])
        self.assertEqual(code, 0)
        self.assertEqual(tracing.wrappers_remaining(), [])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertTrue(result["correct"], out.getvalue()[-2000:])
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        # replicas_needed answers k=8 from fleets 1, 2, 4, 8, 6 and 7.
        self.assertEqual(result["metrics"]["replicas.run.calls"]["value"],
                         6)


class Calibration(unittest.TestCase):
    def test_sampler_samples_and_restores_the_handler(self):
        import calibration
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        sampler = calibration.Sampler()
        with sampler:
            end = time.perf_counter() + 3 * calibration.INTERVAL_S + 0.2
            while time.perf_counter() < end:
                pass
            with sampler.paused():
                taken = len(sampler.samples)
                time.sleep(2 * calibration.INTERVAL_S)
                self.assertEqual(len(sampler.samples), taken)
        self.assertGreaterEqual(len(sampler.samples), 3)
        self.assertAlmostEqual(sampler.spent_s, sum(sampler.samples),
                               delta=0.01)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Smoke(unittest.TestCase):
    def test_one_workload_run_is_correct(self):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "capacity-plan", "--seed", "0", "--seconds", "1",
             "--trace", "0"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in bench["end_to_end"]})
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)


if __name__ == "__main__":
    unittest.main()
