"""Deterministic fault injection for the serving and engine layers.

Everything here is seeded and replayable: a :class:`FaultScenario`
(hand-written dict/JSON/YAML or a named preset) describes *what goes
wrong and when* — GPU HBM pressure, PCIe link downshift or transient
stalls, CXL bandwidth contention, CPU core preemption — and the
:class:`FaultInjector` turns it into degraded
:class:`~repro.hardware.system.SystemConfig` copies and per-chunk
stall draws.  The serving loop's reaction (admission control,
retry/backoff, policy re-solve, batch shrink) lives in
:mod:`repro.serving.degradation`; the functional engine's
transfer-retry accounting in :mod:`repro.faults.engine`.
"""

from repro.faults.engine import TransferFaultModel
from repro.faults.fleet import (FleetScenario, HealthPolicy,
                                RedispatchPolicy, ReplicaFault,
                                ReplicaFaultKind,
                                builtin_fleet_scenarios,
                                fleet_from_dict, fleet_to_dict,
                                get_fleet_scenario,
                                load_fleet_scenario,
                                replica_fault_from_dict)
from repro.faults.injector import FaultInjector, apply_faults
from repro.faults.scenarios import builtin_scenarios, get_scenario
from repro.faults.spec import (PERFORMANCE_KINDS, AdmissionPolicy,
                               FaultEvent, FaultKind, FaultScenario,
                               RetryPolicy, event_from_dict,
                               load_scenario, scenario_from_dict,
                               scenario_to_dict)

__all__ = [
    "AdmissionPolicy",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultScenario",
    "FleetScenario",
    "HealthPolicy",
    "PERFORMANCE_KINDS",
    "RedispatchPolicy",
    "ReplicaFault",
    "ReplicaFaultKind",
    "RetryPolicy",
    "TransferFaultModel",
    "apply_faults",
    "builtin_fleet_scenarios",
    "builtin_scenarios",
    "event_from_dict",
    "fleet_from_dict",
    "fleet_to_dict",
    "get_fleet_scenario",
    "get_scenario",
    "load_fleet_scenario",
    "load_scenario",
    "replica_fault_from_dict",
    "scenario_from_dict",
    "scenario_to_dict",
]
