"""Fleet-chaos specs: validation, semantics, round-trips, presets.

Mirrors ``tests/faults/test_spec.py`` for the fleet surface: every
malformed spec dies at construction with a one-line
:class:`ConfigurationError`, dicts round-trip exactly, and the
built-in scenarios stay loadable by name.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.fleet import (FleetScenario, HealthPolicy,
                                RedispatchPolicy, ReplicaFault,
                                ReplicaFaultKind,
                                builtin_fleet_scenarios,
                                fleet_from_dict, fleet_to_dict,
                                get_fleet_scenario,
                                load_fleet_scenario,
                                replica_fault_from_dict)


def _one_line(error: pytest.ExceptionInfo) -> str:
    message = str(error.value)
    assert "\n" not in message, message
    return message


def _crash(**kwargs):
    kwargs.setdefault("replica", 0)
    return ReplicaFault(ReplicaFaultKind.REPLICA_CRASH, **kwargs)


# ----------------------------------------------------------------------
# ReplicaFault validation and window semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build, fragment", [
    (lambda: _crash(replica=-1), "replica must be an integer >= 0"),
    (lambda: _crash(replica=True), "replica must be an integer >= 0"),
    (lambda: _crash(start=-1.0), "start must be >= 0"),
    (lambda: _crash(duration=0.0), "duration must be positive"),
    (lambda: _crash(magnitude=2.0), "replica-crash takes no magnitude"),
    (lambda: _crash(warmup_s=-1.0), "warmup_s must be >= 0"),
    (lambda: _crash(start=0.0, duration=10.0, warmup_s=5.0),
     "warmup_s only applies to replica-restart"),
    (lambda: ReplicaFault(ReplicaFaultKind.REPLICA_SLOW, replica=0,
                          magnitude=1.0),
     "replica-slow magnitude is a slowdown factor"),
    (lambda: ReplicaFault(ReplicaFaultKind.REPLICA_RESTART, replica=0,
                          magnitude=0.5),
     "replica-restart magnitude is the warm-up"),
    # NaN compares false both ways; it must not slip past the checks.
    pytest.param(lambda: _crash(start=float("nan")), "start must be >= 0",
                 id="nan-start"),
    pytest.param(lambda: _crash(duration=float("nan")),
                 "duration must be positive", id="nan-duration"),
    pytest.param(lambda: ReplicaFault(ReplicaFaultKind.REPLICA_SLOW,
                                      replica=0, magnitude=float("nan")),
                 "replica-slow magnitude is a slowdown factor",
                 id="nan-slow-magnitude"),
    pytest.param(lambda: ReplicaFault(ReplicaFaultKind.REPLICA_RESTART,
                                      replica=0, duration=10.0,
                                      magnitude=2.0,
                                      warmup_s=float("nan")),
                 "warmup_s must be >= 0", id="nan-warmup_s"),
])
def test_replica_fault_validation(build, fragment):
    with pytest.raises(ConfigurationError) as error:
        build()
    assert fragment in _one_line(error)


def test_crash_window_semantics():
    fault = _crash(replica=1, start=100.0, duration=50.0)
    assert fault.end == 150.0
    # Down on [start, end): the crash costs no speed, only downtime.
    assert fault.slow_factor_at(120.0) == 1.0
    assert fault.slow_factor_at(150.0) == 1.0


def test_slow_window_semantics():
    fault = ReplicaFault(ReplicaFaultKind.REPLICA_SLOW, replica=0,
                         start=10.0, duration=20.0, magnitude=4.0)
    # Gray failure: the replica still answers, just slowly while the
    # window is active.
    assert fault.slow_factor_at(9.9) == 1.0
    assert fault.slow_factor_at(10.0) == 4.0
    assert fault.slow_factor_at(29.9) == 4.0
    assert fault.slow_factor_at(30.0) == 1.0


def test_restart_downtime_then_warmup():
    fault = ReplicaFault(ReplicaFaultKind.REPLICA_RESTART, replica=2,
                         start=100.0, duration=60.0, magnitude=2.0,
                         warmup_s=120.0)
    assert fault.end == 160.0
    assert fault.slow_factor_at(159.9) == 1.0
    assert fault.slow_factor_at(160.0) == 2.0
    assert fault.slow_factor_at(279.9) == 2.0
    assert fault.slow_factor_at(280.0) == 1.0
    assert fault.slow_factor_at(99.0) == 1.0


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build, fragment", [
    (lambda: HealthPolicy(failure_threshold=0),
     "failure_threshold must be >= 1"),
    (lambda: HealthPolicy(cooldown_s=0.0),
     "cooldown_s must be positive"),
    (lambda: HealthPolicy(half_open_probes=0),
     "half_open_probes must be >= 1"),
    (lambda: HealthPolicy(slow_tolerance=1.0),
     "slow_tolerance must be > 1"),
    (lambda: RedispatchPolicy(max_retries=-1),
     "max_retries must be >= 0"),
    (lambda: RedispatchPolicy(hedge_after_s=-0.1),
     "hedge_after_s must be >= 0"),
    pytest.param(lambda: HealthPolicy(cooldown_s=float("nan")),
                 "cooldown_s must be positive", id="nan-cooldown_s"),
    pytest.param(lambda: RedispatchPolicy(hedge_after_s=float("nan")),
                 "hedge_after_s must be >= 0", id="nan-hedge_after_s"),
])
def test_policy_validation(build, fragment):
    with pytest.raises(ConfigurationError) as error:
        build()
    assert fragment in _one_line(error)


def test_hedging_flag():
    assert not RedispatchPolicy().hedging
    assert RedispatchPolicy(hedge_after_s=5.0).hedging


def test_idle_means_no_faults_and_no_hedging():
    assert FleetScenario().idle
    assert not FleetScenario(faults=(_crash(),)).idle
    assert not FleetScenario(
        redispatch=RedispatchPolicy(hedge_after_s=1.0)).idle


def test_faults_for_filters_and_sorts_by_start():
    late = _crash(replica=1, start=500.0, duration=10.0)
    early = ReplicaFault(ReplicaFaultKind.REPLICA_SLOW, replica=1,
                         start=100.0, duration=10.0, magnitude=2.0)
    other = _crash(replica=0, start=0.0, duration=10.0)
    scenario = FleetScenario(faults=(late, other, early))
    assert scenario.faults_for(1) == (early, late)
    assert scenario.faults_for(0) == (other,)
    assert scenario.faults_for(7) == ()


# ----------------------------------------------------------------------
# Dict / file surface
# ----------------------------------------------------------------------
def test_every_builtin_scenario_round_trips_exactly():
    scenarios = builtin_fleet_scenarios()
    assert list(scenarios) == sorted(scenarios)
    for name, scenario in scenarios.items():
        assert scenario.name == name
        assert fleet_from_dict(fleet_to_dict(scenario)) == scenario


def test_round_trip_preserves_custom_scenario():
    scenario = FleetScenario(
        name="custom",
        faults=(
            ReplicaFault(ReplicaFaultKind.REPLICA_RESTART, replica=3,
                         start=60.0, duration=30.0, magnitude=2.5,
                         warmup_s=90.0),
        ),
        health=HealthPolicy(failure_threshold=5, cooldown_s=45.0,
                            half_open_probes=2, slow_tolerance=2.5),
        redispatch=RedispatchPolicy(max_retries=4, hedge_after_s=3.0))
    assert fleet_from_dict(fleet_to_dict(scenario)) == scenario


@pytest.mark.parametrize("data, fragment", [
    ("nope", "fleet scenario must be a mapping"),
    ({"surprise": 1}, "unknown keys ['surprise']"),
    ({"name": 4}, "name must be a string"),
    ({"seed": 1}, "unknown keys ['seed']"),
    ({"faults": "crash"}, "faults must be a list"),
    ({"faults": [{"kind": "meteor"}]}, "unknown replica fault kind"),
    ({"faults": [{"kind": "replica-crash", "vigor": 2}]},
     "unknown keys ['vigor']"),
    ({"faults": [{"kind": "replica-crash", "replica": "one"}]},
     "replica must be an integer"),
    ({"health": {"cooldown_s": "long"}}, "cooldown_s must be a number"),
    ({"health": {"zeal": 3}}, "unknown keys ['zeal']"),
    ({"health": 7}, "fleet scenario.health must be a mapping"),
    ({"redispatch": {"max_retries": 0.5}},
     "max_retries must be an integer"),
    ({"redispatch": {"panic": True}}, "unknown keys ['panic']"),
    ({"faults": [{"kind": "replica-crash"}]},
     "missing required key 'replica'"),
    ({"faults": [{"kind": "replica-crash", "replica": 0,
                  "start": float("nan")}]},
     "faults[0].start must be a number, got NaN"),
])
def test_fleet_from_dict_rejects_malformed_specs(data, fragment):
    with pytest.raises(ConfigurationError) as error:
        fleet_from_dict(data)
    assert fragment in _one_line(error)


def test_replica_fault_from_dict_unknown_kind_lists_known():
    with pytest.raises(ConfigurationError) as error:
        replica_fault_from_dict({"kind": "meteor"})
    message = _one_line(error)
    assert "replica-crash" in message
    assert "replica-slow" in message
    assert "replica-restart" in message


def test_load_fleet_scenario_json_round_trip(tmp_path):
    """Every built-in scenario dumps as strict JSON and loads back
    equal."""
    for name, scenario in builtin_fleet_scenarios().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fleet_to_dict(scenario),
                                   allow_nan=False))
        assert load_fleet_scenario(str(path)) == scenario, name


def test_load_fleet_scenario_missing_file_is_one_line(tmp_path):
    with pytest.raises(ConfigurationError) as error:
        load_fleet_scenario(str(tmp_path / "absent.json"))
    assert "cannot read fleet scenario" in _one_line(error)


def test_load_fleet_scenario_invalid_json_is_one_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[")
    with pytest.raises(ConfigurationError) as error:
        load_fleet_scenario(str(path))
    assert "not valid JSON" in _one_line(error)


def test_get_fleet_scenario_unknown_is_one_line():
    with pytest.raises(ConfigurationError) as error:
        get_fleet_scenario("volcano")
    message = _one_line(error)
    assert "unknown fleet scenario 'volcano'" in message
    assert "replica-crash" in message
