"""The one spec codec: strict-JSON round trips, defaults, file errors.

Fault scenarios, fleet-chaos scenarios and arrival traces all load,
check and serialize through :mod:`repro.specs`; these tests pin the
rules every one of them shares.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (FaultEvent, FaultKind, FaultScenario,
                          FleetScenario, ReplicaFault, ReplicaFaultKind,
                          builtin_fleet_scenarios, builtin_scenarios,
                          fleet_from_dict, fleet_to_dict,
                          load_fleet_scenario, load_scenario,
                          scenario_from_dict, scenario_to_dict)
from repro.workloads import (TraceSpec, builtin_traces, load_trace,
                             trace_from_dict, trace_to_dict)

#: (every built-in spec, to_dict, from_dict, load) per spec family.
FAMILIES = {
    "scenario": (builtin_scenarios, scenario_to_dict, scenario_from_dict,
                 load_scenario),
    "fleet": (builtin_fleet_scenarios, fleet_to_dict, fleet_from_dict,
              load_fleet_scenario),
    "trace": (builtin_traces, trace_to_dict, trace_from_dict,
              load_trace),
}


def _one_line(error: pytest.ExceptionInfo) -> str:
    message = str(error.value)
    assert "\n" not in message, message
    return message


def _strict_file_round_trip(spec, to_dict, load, path):
    path.write_text(json.dumps(to_dict(spec), allow_nan=False))
    return load(str(path))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_builtin_preset_round_trips_through_strict_json(
        family, tmp_path):
    builtins, to_dict, __, load = FAMILIES[family]
    for name, spec in builtins().items():
        path = tmp_path / f"{name}.json"
        assert _strict_file_round_trip(spec, to_dict, load, path) == spec


def test_open_ended_windows_round_trip_through_strict_json(tmp_path):
    # An open-ended window (duration = inf, the default) is omitted
    # from the dict instead of being written as the non-JSON Infinity.
    scenario = FaultScenario(events=(
        FaultEvent(FaultKind.PCIE_STALL, start=5.0, magnitude=0.1),))
    chaos = FleetScenario(faults=(
        ReplicaFault(ReplicaFaultKind.REPLICA_CRASH, replica=1,
                     start=60.0),))
    assert "duration" not in fleet_to_dict(chaos)["faults"][0]
    # Written out anyway (JSON's Infinity), the default still loads.
    assert scenario_from_dict({"events": [
        {"kind": "pcie-stall", "start": 5.0, "magnitude": 0.1,
         "duration": float("inf")}]}) == scenario
    assert _strict_file_round_trip(scenario, scenario_to_dict,
                                   load_scenario,
                                   tmp_path / "s.json") == scenario
    assert _strict_file_round_trip(chaos, fleet_to_dict,
                                   load_fleet_scenario,
                                   tmp_path / "f.json") == chaos


@pytest.mark.parametrize("family, spec", [
    ("scenario", FaultScenario()),
    ("fleet", FleetScenario()),
    ("trace", TraceSpec()),
])
def test_missing_keys_take_the_dataclass_defaults(family, spec):
    from_dict = FAMILIES[family][2]
    assert from_dict({}) == spec


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_malformed_yaml_is_a_one_line_error(family, tmp_path):
    pytest.importorskip("yaml")
    load = FAMILIES[family][3]
    path = tmp_path / "bad.yaml"
    path.write_text("name: x\nfaults: [ {kind: replica-crash\n")
    with pytest.raises(ConfigurationError) as error:
        load(str(path))
    assert "is not valid YAML" in _one_line(error)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_undecodable_file_is_a_one_line_error(family, tmp_path):
    load = FAMILIES[family][3]
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ConfigurationError) as error:
        load(str(path))
    assert "cannot read" in _one_line(error)


@pytest.mark.parametrize("data, fragment", [
    ({"faults": [{"kind": "replica-slow", "replica": 0,
                  "magnitude": 2.0, "start": [1]}]},
     "fleet scenario.faults[0].start must be a number, got list"),
    ({1: "one", "zz": 2}, "unknown keys [1, 'zz']"),
    ({"health": {"cooldown_s": 10 ** 400}},
     "fleet scenario.health.cooldown_s is out of float range"),
    ({"health": {"cooldown_s": float("nan")}},
     "fleet scenario.health.cooldown_s must be a number, got NaN"),
    ({"faults": [{"kind": "replica-crash", "replica": 0,
                  "start": float("inf")}]},
     "fleet scenario.faults[0].start must be finite, got inf"),
])
def test_errors_name_the_offending_key(data, fragment):
    with pytest.raises(ConfigurationError) as error:
        fleet_from_dict(data)
    assert fragment in _one_line(error)

