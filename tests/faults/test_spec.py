"""Fault-scenario specification: validation, loading, determinism."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.spec import (AdmissionPolicy, FaultEvent, FaultKind,
                               FaultScenario, RetryPolicy,
                               event_from_dict, load_scenario,
                               scenario_from_dict, scenario_to_dict)
from repro.faults.scenarios import builtin_scenarios
from tests.oracles.fifo_loop import rng_for


# ----------------------------------------------------------------------
# Event validation
# ----------------------------------------------------------------------
def test_event_window_is_half_open():
    event = FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=10.0,
                       duration=5.0, magnitude=0.5)
    assert not event.active_at(9.999)
    assert event.active_at(10.0)
    assert event.active_at(14.999)
    assert not event.active_at(15.0)


def test_event_defaults_to_whole_run():
    event = FaultEvent(FaultKind.PCIE_STALL, magnitude=0.1)
    assert event.active_at(0.0)
    assert event.active_at(1e12)


@pytest.mark.parametrize("kind,magnitude", [
    (FaultKind.PCIE_DOWNSHIFT, 0.0),      # scale must be > 0
    (FaultKind.PCIE_DOWNSHIFT, 1.5),
    (FaultKind.CXL_CONTENTION, -0.1),
    (FaultKind.GPU_HBM_PRESSURE, 1.0),    # fraction must be < 1
    (FaultKind.CPU_PREEMPTION, -0.01),
    (FaultKind.PCIE_STALL, 1.01),         # probability <= 1
    (FaultKind.PCIE_STALL, float("nan")),
    (FaultKind.PCIE_DOWNSHIFT, float("nan")),
])
def test_event_magnitude_ranges(kind, magnitude):
    with pytest.raises(ConfigurationError):
        FaultEvent(kind, magnitude=magnitude)


def test_event_rejects_negative_start_and_zero_duration():
    with pytest.raises(ConfigurationError):
        FaultEvent(FaultKind.PCIE_STALL, start=-1.0, magnitude=0.1)
    with pytest.raises(ConfigurationError):
        FaultEvent(FaultKind.PCIE_STALL, duration=0.0, magnitude=0.1)
    # NaN compares false both ways; it must not slip past the checks.
    for field in ("start", "duration"):
        with pytest.raises(ConfigurationError, match=field):
            FaultEvent(FaultKind.PCIE_STALL, magnitude=0.1,
                       **{field: float("nan")})


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_backoff_schedule_is_exponential():
    retry = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0)
    assert retry.backoff_delay(0) == pytest.approx(0.01)
    assert retry.backoff_delay(1) == pytest.approx(0.02)
    assert retry.backoff_delay(3) == pytest.approx(0.08)
    with pytest.raises(ConfigurationError):
        retry.backoff_delay(-1)


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_factor=0.5)
    for field in ("timeout_s", "backoff_base_s", "backoff_factor"):
        with pytest.raises(ConfigurationError, match=field):
            RetryPolicy(**{field: float("nan")})


def test_admission_disabled_at_zero_depth():
    assert not AdmissionPolicy().enabled
    assert AdmissionPolicy(max_queue_depth=4).enabled
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_queue_depth=-1)


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
def test_idle_means_no_events_and_no_admission():
    assert FaultScenario(name="nothing").idle
    assert not FaultScenario(events=(
        FaultEvent(FaultKind.PCIE_STALL, magnitude=0.1),)).idle
    assert not FaultScenario(
        admission=AdmissionPolicy(max_queue_depth=2)).idle


def test_rng_for_is_deterministic_and_independent():
    scenario = FaultScenario(seed=42)
    a1 = [rng_for(scenario, 7).random() for __ in range(3)]
    a2 = [rng_for(scenario, 7).random() for __ in range(3)]
    assert a1 == a2
    assert rng_for(scenario, 7).random() != rng_for(scenario, 8).random()
    # Different seeds give different streams for the same index.
    assert (rng_for(FaultScenario(seed=1), 0).random()
            != rng_for(FaultScenario(seed=2), 0).random())
    with pytest.raises(ConfigurationError):
        rng_for(scenario, -1)


# ----------------------------------------------------------------------
# Dict / file loading
# ----------------------------------------------------------------------
def test_dict_round_trip():
    scenario = FaultScenario(
        name="rt", seed=9,
        events=(FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=5.0,
                           duration=60.0, magnitude=0.5),
                FaultEvent(FaultKind.PCIE_STALL, magnitude=0.02)),
        retry=RetryPolicy(max_retries=2, timeout_s=0.1),
        admission=AdmissionPolicy(max_queue_depth=8, max_deferrals=2),
        chunks_per_request=4)
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_every_builtin_scenario_round_trips_through_strict_json(tmp_path):
    for name, scenario in builtin_scenarios().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario_to_dict(scenario),
                                   allow_nan=False))
        assert load_scenario(str(path)) == scenario, name


@pytest.mark.parametrize("data,fragment", [
    ({"kind": "melting"}, "unknown fault kind"),
    ({"kind": "pcie-stall", "oops": 1}, "unknown keys"),
    ({"kind": "pcie-stall", "magnitude": "high"}, "must be a number"),
])
def test_event_from_dict_errors(data, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        event_from_dict(data)


def test_scenario_from_dict_errors():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        scenario_from_dict({"name": "x", "typo": 1})
    with pytest.raises(ConfigurationError, match="must be an integer"):
        scenario_from_dict({"seed": 1.5})
    with pytest.raises(ConfigurationError, match="must be a list"):
        scenario_from_dict({"events": "pcie-stall"})


@pytest.mark.parametrize("data, fragment", [
    ({"retry": {"max_retries": 2.7}}, "max_retries must be an integer"),
    ({"admission": {"max_queue_depth": 16.9}},
     "max_queue_depth must be an integer"),
    ({"chunks_per_request": 3.5}, "chunks_per_request must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
    # NaN passes no range check, so the codec names it.
    ({"events": [{"kind": "pcie-stall", "start": float("nan"),
                  "magnitude": 0.1}]},
     r"events\[0\]\.start must be a number, got NaN"),
    ({"retry": {"timeout_s": float("nan")}},
     "timeout_s must be a number, got NaN"),
])
def test_scenario_from_dict_rejects_bad_counts(data, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        scenario_from_dict(data)


def test_load_scenario_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "from-file", "seed": 3,
        "events": [{"kind": "cxl-contention", "magnitude": 0.7}]}))
    scenario = load_scenario(str(path))
    assert scenario.name == "from-file"
    assert scenario.events[0].kind is FaultKind.CXL_CONTENTION


def test_load_scenario_error_is_one_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_scenario(str(path))
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))


def test_load_scenario_yaml(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump({
        "name": "from-yaml",
        "events": [{"kind": "pcie-downshift", "magnitude": 0.5}]}))
    assert load_scenario(str(path)).name == "from-yaml"
