"""Workload traces: determinism, spec round-trips, one-line errors.

The contract pinned here is the one the fleet simulator leans on:
a :class:`TraceSpec` is the *complete* description of its arrival
process — two equal specs generate bit-identical arrays on every
run.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serving import arrivals_poisson
from repro.workloads import (TRACE_KINDS, TraceSpec, arrivals_diurnal,
                             arrivals_heavy_tail, arrivals_mmpp,
                             builtin_traces, get_trace, load_trace,
                             session_trace, trace_from_dict,
                             trace_to_dict)


def _one_line(error: pytest.ExceptionInfo) -> str:
    message = str(error.value)
    assert "\n" not in message, message
    return message


# ----------------------------------------------------------------------
# Generator basics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_generators_return_sorted_positive_float64(kind):
    trace = TraceSpec(kind=kind, n_requests=500, rate_per_s=1.0,
                      seed=3).generate()
    assert trace.dtype == np.float64
    assert trace.shape == (500,)
    assert (trace > 0.0).all()
    assert (np.diff(trace) >= 0.0).all()


@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_zero_requests_is_an_empty_trace(kind):
    trace = TraceSpec(kind=kind, n_requests=0).generate()
    assert trace.shape == (0,)
    assert trace.dtype == np.float64


def test_poisson_spec_replays_arrivals_poisson_exactly():
    # The "poisson" kind is not a numpy approximation: it reproduces
    # the seed generator's stdlib-Random stream byte for byte, so a
    # spec can stand in for any historical arrivals_poisson() run.
    spec = TraceSpec(kind="poisson", n_requests=400, rate_per_s=0.7,
                     seed=11)
    assert np.array_equal(spec.generate(),
                          arrivals_poisson(400, 0.7, seed=11))


def test_diurnal_long_run_rate_matches_target():
    trace = arrivals_diurnal(4000, 2.0, amplitude=0.8,
                             period_s=600.0, seed=0)
    empirical = trace.size / float(trace[-1])
    assert empirical == pytest.approx(2.0, rel=0.25)


def test_session_trace_labels_align_with_arrivals():
    trace = session_trace(300, 1.0, turns_mean=4.0,
                          think_mean_s=10.0, seed=6)
    assert trace.n_requests == 300
    assert trace.session.shape == trace.arrivals.shape
    assert trace.turn.shape == trace.arrivals.shape
    assert np.unique(trace.session).size > 1
    # Within one session the turn index counts 0, 1, 2, ... and the
    # arrivals advance monotonically (think times are positive).
    for sid in np.unique(trace.session):
        mask = trace.session == sid
        order = np.argsort(trace.turn[mask])
        turns = trace.turn[mask][order]
        assert turns.tolist() == list(range(turns.size))
        assert (np.diff(trace.arrivals[mask][order]) >= 0.0).all()


# ----------------------------------------------------------------------
# Determinism: equal specs, repeated runs
# ----------------------------------------------------------------------
def test_equal_specs_generate_bit_identical_arrays():
    for kind in TRACE_KINDS:
        first = TraceSpec(kind=kind, n_requests=300, seed=9).generate()
        second = TraceSpec(kind=kind, n_requests=300, seed=9).generate()
        assert np.array_equal(first, second), kind


def test_different_seeds_generate_different_traces():
    for kind in TRACE_KINDS:
        a = TraceSpec(kind=kind, n_requests=200, seed=0).generate()
        b = TraceSpec(kind=kind, n_requests=200, seed=1).generate()
        assert not np.array_equal(a, b), kind


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(TRACE_KINDS), seed=st.integers(0, 2 ** 16))
def test_traces_identical_across_repeat_generations(kind, seed):
    """A trace depends only on its spec: generating it again gives
    the same array."""
    spec = TraceSpec(kind=kind, n_requests=200, rate_per_s=0.5,
                     seed=seed)
    traces = [spec.generate() for _ in range(2)]
    assert np.array_equal(traces[0], traces[1])


def test_scaled_preserves_the_process():
    spec = get_trace("bursty")
    longer = spec.scaled(123)
    assert longer.n_requests == 123
    assert trace_to_dict(longer) == {**trace_to_dict(spec),
                                     "n_requests": 123}


# ----------------------------------------------------------------------
# Spec surface: round-trips, presets, loading
# ----------------------------------------------------------------------
def test_every_preset_round_trips_exactly():
    presets = builtin_traces()
    assert list(presets) == sorted(presets)
    for name, spec in presets.items():
        assert spec.name == name
        assert trace_from_dict(trace_to_dict(spec)) == spec


def test_round_trip_preserves_custom_fields():
    spec = TraceSpec(name="hot", kind="heavy-tail", n_requests=777,
                     rate_per_s=3.5, seed=42, distribution="pareto",
                     alpha=1.2)
    assert trace_from_dict(trace_to_dict(spec)) == spec


def test_load_trace_json_round_trip(tmp_path):
    """Every preset, and a scaled one, dumps as strict JSON and loads
    back equal."""
    specs = {**builtin_traces(), "scaled": get_trace("diurnal").scaled(99)}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(trace_to_dict(spec), allow_nan=False))
        assert load_trace(str(path)) == spec, name


def test_load_trace_missing_file_is_one_line(tmp_path):
    with pytest.raises(ConfigurationError) as error:
        load_trace(str(tmp_path / "absent.json"))
    assert "cannot read trace spec" in _one_line(error)


def test_load_trace_invalid_json_is_one_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError) as error:
        load_trace(str(path))
    assert "not valid JSON" in _one_line(error)


def test_get_trace_unknown_preset_is_one_line():
    with pytest.raises(ConfigurationError) as error:
        get_trace("full-moon")
    message = _one_line(error)
    assert "unknown trace preset 'full-moon'" in message
    assert "steady" in message


# ----------------------------------------------------------------------
# Validation: every malformed spec dies with a one-line error
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fields, fragment", [
    ({"kind": "lunar"}, "unknown trace kind"),
    ({"n_requests": -1}, "n_requests must be >= 0"),
    ({"rate_per_s": 0.0}, "rate_per_s must be positive"),
    ({"rate_per_s": -2.0}, "rate_per_s must be positive"),
    ({"seed": -5}, "seed must be >= 0"),
    ({"rate_per_s": float("nan")}, "rate_per_s must be positive"),
])
def test_spec_constructor_rejects_bad_fields(fields, fragment):
    with pytest.raises(ConfigurationError) as error:
        TraceSpec(**fields)
    assert fragment in _one_line(error)


@pytest.mark.parametrize("data, fragment", [
    ("not a dict", "must be a mapping"),
    (["kind", "poisson"], "must be a mapping"),
    ({"kind": "poisson", "typo": 1}, "unknown keys ['typo']"),
    ({"name": 7}, "name must be a string"),
    ({"kind": 7}, "kind must be a string"),
    ({"n_requests": 2.5}, "n_requests must be an integer"),
    ({"n_requests": True}, "n_requests must be an integer"),
    ({"rate_per_s": "fast"}, "rate_per_s must be a number"),
    ({"distribution": 3}, "distribution must be a string"),
    ({"rate_per_s": float("nan")}, "rate_per_s must be a number, got NaN"),
])
def test_trace_from_dict_rejects_malformed_specs(data, fragment):
    with pytest.raises(ConfigurationError) as error:
        trace_from_dict(data)
    assert fragment in _one_line(error)


@pytest.mark.parametrize("call, fragment", [
    (lambda: arrivals_diurnal(10, 1.0, amplitude=1.0),
     "amplitude must be in [0, 1)"),
    (lambda: arrivals_diurnal(10, 1.0, period_s=0.0),
     "period_s must be positive"),
    (lambda: arrivals_mmpp(10, 1.0, burst_factor=0.5),
     "burst_factor must be >= 1"),
    (lambda: arrivals_mmpp(10, 1.0, burst_fraction=1.0),
     "burst_fraction must be in (0, 1)"),
    (lambda: arrivals_mmpp(10, 1.0, mean_dwell_s=0.0),
     "mean_dwell_s must be positive"),
    (lambda: arrivals_heavy_tail(10, 1.0, distribution="cauchy"),
     "unknown heavy-tail distribution"),
    (lambda: arrivals_heavy_tail(10, 1.0, sigma=0.0),
     "sigma must be positive"),
    (lambda: arrivals_heavy_tail(10, 1.0, alpha=1.0),
     "alpha must be > 1"),
    (lambda: session_trace(10, 1.0, turns_mean=0.5),
     "turns_mean must be >= 1"),
    (lambda: session_trace(10, 1.0, think_mean_s=0.0),
     "think_mean_s must be positive"),
])
def test_generator_parameter_validation(call, fragment):
    with pytest.raises(ConfigurationError) as error:
        call()
    assert fragment in _one_line(error)
