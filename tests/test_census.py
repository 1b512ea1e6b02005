"""The option pass of ``scripts/census.py`` over a toy package: which
defaulted parameters and dataclass fields a run sets off-default, and
how ``--check`` treats allowlist entries that no longer hold."""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"

TOY = '''
import dataclasses


@dataclasses.dataclass(frozen=True)
class Config:
    depth: int = 3
    scale: float = 0.5


#: A module-level construction: ``scale`` is set off its default.
DEFAULT = Config(scale=0.75)


def serve(requests, batch=1, *, mode="fifo", weights=None):
    return requests


def window(horizon, width=2.0):
    return horizon / width


def untouched(limit=5):
    return limit
'''


def _load_census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package, tmp_path
    for name in ("toy", "toy.mod"):
        sys.modules.pop(name, None)


def _surface():
    import numpy as np

    mod = importlib.import_module("toy.mod")
    mod.serve([], 4)                      # positional, off default
    mod.serve([], mode="continuous")      # keyword, off default
    mod.serve([], weights=np.ones(2))     # numpy counts as varied
    mod.window(10.0, 2.0)                 # equal to the default
    mod.window(10.0, width=2)             # equal, another type
    mod.untouched()
    mod.Config(depth=3)                   # equal to the default


def _census(package, src):
    defs, knobs, __ = census.package_census(package, src)
    run = census.profiled_run([_surface], census.knobbed_code(defs, knobs),
                              package, src)
    return defs, knobs, run, census.knob_status(defs, knobs, run)


def test_option_pass_marks_what_a_call_sets(toy):
    package, src = toy
    __, knobs, __, status = _census(package, src)
    assert {knob.key for knob in knobs} == {
        "toy/mod.py:Config.depth", "toy/mod.py:Config.scale",
        "toy/mod.py:serve.batch", "toy/mod.py:serve.mode",
        "toy/mod.py:serve.weights", "toy/mod.py:window.width",
        "toy/mod.py:untouched.limit"}
    assert status == {
        "toy/mod.py:Config.depth": "unvaried",
        "toy/mod.py:Config.scale": "varied",   # set at module level
        "toy/mod.py:serve.batch": "varied",    # positional pass
        "toy/mod.py:serve.mode": "varied",     # keyword pass
        "toy/mod.py:serve.weights": "varied",  # a numpy argument
        "toy/mod.py:window.width": "unvaried",  # passed its default
        "toy/mod.py:untouched.limit": "unvaried"}


def test_check_fails_on_stale_knob_entries(toy):
    package, src = toy
    defs, knobs, run, status = _census(package, src)
    missed = census.unreached(defs, run.reached)
    allowed = {
        "toy/mod.py:Config.depth": ("oracle", "tests/oracles/x.py"),
        "toy/mod.py:window.width": ("flag", "--width"),
        "toy/mod.py:serve.batch": ("flag", "--batch"),   # now varied
        "toy/mod.py:gone.limit": ("flag", "--limit"),    # deleted
    }
    problems = census.check(defs, missed, knobs, status, allowed, {},
                            root=src)
    assert "never varied and not allowlisted: toy/mod.py:untouched.limit" \
        in problems
    assert "allowlisted but now varied: toy/mod.py:serve.batch" in problems
    assert "allowlisted but no longer defined: toy/mod.py:gone.limit" \
        in problems
    # Witnesses that do not hold in this tree fail too.
    assert any(problem.startswith("oracle witness does not hold: "
                                  "toy/mod.py:Config.depth")
               for problem in problems)
    assert any(problem.startswith("flag witness does not hold: "
                                  "toy/mod.py:window.width")
               for problem in problems)
    assert len(problems) == 5


@pytest.fixture(scope="module")
def witness():
    """``witness_problem`` for one knob of the real package."""
    defs, knobs, classes = census.package_census()
    knobs = {knob.key: knob for knob in knobs}
    defs = {d.key: d for d in defs}
    return lambda key, reason, witness: census.witness_problem(
        knobs[key], reason, witness, defs, classes)


@pytest.mark.parametrize("key, reason, spelled", [
    # a field of the loader's spec class
    ("repro/workloads/spec.py:TraceSpec.sigma", "spec",
     "repro/workloads/spec.py:load_trace"),
    # a field of a dataclass nested in it
    ("repro/faults/fleet.py:HealthPolicy.failure_threshold", "spec",
     "repro/faults/fleet.py:load_fleet_scenario"),
    # the knob's annotated type
    ("repro/serving/planner.py:choose_system.scenario", "spec",
     "repro/faults/spec.py:load_scenario"),
    ("repro/experiments/ext_kv_tiering.py:run.model", "sweep",
     "repro/experiments/ext_kv_tiering.py:run"),
])
def test_witness_that_reaches_its_knob_holds(witness, key, reason,
                                             spelled):
    assert witness(key, reason, spelled) == ""


@pytest.mark.parametrize("key, reason, spelled", [
    # a def that loads no spec
    ("repro/workloads/spec.py:TraceSpec.sigma", "spec",
     "repro/cli.py:main"),
    # a loader whose spec class does not declare the knob
    ("repro/workloads/spec.py:TraceSpec.sigma", "spec",
     "repro/faults/spec.py:load_scenario"),
    # a loader whose spec classes have a field of that name, but not
    # the knob's own class
    ("repro/workloads/spec.py:TraceSpec.seed", "spec",
     "repro/faults/spec.py:load_scenario"),
    # a driver, but not the knob's own
    ("repro/experiments/ext_kv_tiering.py:run.model", "sweep",
     "repro/experiments/goldens.py:golden_dir"),
])
def test_witness_that_misses_its_knob_fails(witness, key, reason,
                                            spelled):
    assert witness(key, reason, spelled).startswith(
        f"{reason} witness does not hold: {key}")
