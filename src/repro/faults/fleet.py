"""Fleet-level fault kinds: replica crash, gray failure, restart.

:mod:`repro.faults.spec` injects *hardware* faults inside one
replica; this module describes faults of the **fleet** — whole
replicas crashing, running slow (gray failure), or bouncing through
a restart with a cold cache.  The same design rules apply: frozen
dataclasses, eager one-line :class:`ConfigurationError` validation,
and named presets; dict round-trips and JSON/YAML loading go through
the one spec codec in :mod:`repro.specs`.

Semantics (enforced by the fleet loop of :mod:`repro.serving.fleet`,
which :class:`~repro.serving.replicas.MultiReplicaSimulator` runs
when given ``chaos``):

* ``replica-crash`` — the replica is down on ``[start, start +
  duration)``.  Requests in flight at the crash instant are killed
  and re-dispatched (subject to the retry budget); requests routed
  to a down replica fail immediately.
* ``replica-slow`` — gray failure: service times on the replica are
  multiplied by ``magnitude`` (> 1) while the window is active.  The
  replica still answers, which is exactly why a liveness check
  misses it; the dispatcher's health monitor counts inflated
  attempts toward the circuit breaker instead.
* ``replica-restart`` — down for ``duration`` seconds, then serving
  again but ``magnitude`` times slower for ``warmup_s`` seconds
  while caches refill.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError
from repro.specs import (build_all, load_spec, lookup, spec_from_dict,
                         spec_to_dict)

__all__ = [
    "FleetScenario",
    "HealthPolicy",
    "RedispatchPolicy",
    "ReplicaFault",
    "ReplicaFaultKind",
    "builtin_fleet_scenarios",
    "fleet_from_dict",
    "fleet_to_dict",
    "get_fleet_scenario",
    "load_fleet_scenario",
    "replica_fault_from_dict",
]


class ReplicaFaultKind(str, enum.Enum):
    """The three ways a replica betrays its fleet."""

    REPLICA_CRASH = "replica-crash"
    REPLICA_SLOW = "replica-slow"
    REPLICA_RESTART = "replica-restart"


@dataclass(frozen=True)
class ReplicaFault:
    """One fault window on one replica."""

    kind: ReplicaFaultKind
    replica: int
    start: float = 0.0
    duration: float = float("inf")
    magnitude: float = 0.0
    warmup_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.replica, int) or isinstance(
                self.replica, bool) or self.replica < 0:
            raise ConfigurationError(
                f"replica must be an integer >= 0, "
                f"got {self.replica!r}")
        # Written so that NaN fails every check.
        if not self.start >= 0.0:
            raise ConfigurationError(
                f"start must be >= 0, got {self.start}")
        if not self.duration > 0.0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}")
        if self.kind is ReplicaFaultKind.REPLICA_SLOW:
            if not self.magnitude > 1.0:
                raise ConfigurationError(
                    "replica-slow magnitude is a slowdown factor and "
                    f"must be > 1, got {self.magnitude}")
        elif self.kind is ReplicaFaultKind.REPLICA_RESTART:
            if not self.magnitude >= 1.0:
                raise ConfigurationError(
                    "replica-restart magnitude is the warm-up "
                    f"slowdown and must be >= 1, got {self.magnitude}")
        elif self.magnitude != 0.0:
            raise ConfigurationError(
                "replica-crash takes no magnitude, "
                f"got {self.magnitude}")
        if not self.warmup_s >= 0.0:
            raise ConfigurationError(
                f"warmup_s must be >= 0, got {self.warmup_s}")
        if (self.warmup_s > 0.0
                and self.kind is not ReplicaFaultKind.REPLICA_RESTART):
            raise ConfigurationError(
                f"warmup_s only applies to replica-restart, "
                f"got {self.warmup_s} on {self.kind.value}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def slow_factor_at(self, time: float) -> float:
        """Service-time multiplier at ``time`` (1.0 when healthy)."""
        if self.kind is ReplicaFaultKind.REPLICA_SLOW:
            return self.magnitude if self.start <= time < self.end \
                else 1.0
        if self.kind is ReplicaFaultKind.REPLICA_RESTART:
            if self.end <= time < self.end + self.warmup_s:
                return self.magnitude
        return 1.0


@dataclass(frozen=True)
class HealthPolicy:
    """Circuit breaker: when the dispatcher stops trusting a replica.

    ``failure_threshold`` consecutive failed attempts open the
    breaker; it stays open for ``cooldown_s``, then HALF_OPEN lets
    ``half_open_probes`` live requests through — all must succeed to
    close it again.  An attempt whose service time inflates by at
    least ``slow_tolerance`` (gray failure) counts as a failure even
    though the request completes.
    """

    failure_threshold: int = 3
    cooldown_s: float = 120.0
    half_open_probes: int = 1
    slow_tolerance: float = 3.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}")
        if not self.cooldown_s > 0.0:
            raise ConfigurationError(
                f"cooldown_s must be positive, got {self.cooldown_s}")
        if self.half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, "
                f"got {self.half_open_probes}")
        if not self.slow_tolerance > 1.0:
            raise ConfigurationError(
                f"slow_tolerance must be > 1, "
                f"got {self.slow_tolerance}")


@dataclass(frozen=True)
class RedispatchPolicy:
    """What happens to a request whose replica failed it.

    ``max_retries`` further attempts on other replicas before the
    request is dropped (0 = fail hard, the ablation CI uses to prove
    failover is load-bearing).  ``hedge_after_s > 0`` additionally
    issues a duplicate attempt on the next healthy replica whenever
    the predicted queue wait exceeds the bound; the earlier finish
    wins and both replicas' time is spent — the classic
    tail-at-scale trade.
    """

    max_retries: int = 2
    hedge_after_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if not self.hedge_after_s >= 0.0:
            raise ConfigurationError(
                f"hedge_after_s must be >= 0, "
                f"got {self.hedge_after_s}")

    @property
    def hedging(self) -> bool:
        return self.hedge_after_s > 0.0


@dataclass(frozen=True)
class FleetScenario:
    """A chaos schedule plus the fleet's reaction policies."""

    name: str = "fleet"
    faults: Tuple[ReplicaFault, ...] = ()
    health: HealthPolicy = field(default_factory=HealthPolicy)
    redispatch: RedispatchPolicy = field(
        default_factory=RedispatchPolicy)

    @property
    def idle(self) -> bool:
        """No faults and no hedging: the control plane never acts,
        so the run must be bit-identical to a static fleet."""
        return not self.faults and not self.redispatch.hedging

    @property
    def events(self) -> Tuple[ReplicaFault, ...]:
        """The fault windows SLO alerts are attributed to, under the
        name :class:`~repro.faults.spec.FaultScenario` gives them."""
        return self.faults

    def faults_for(self, replica: int) -> Tuple[ReplicaFault, ...]:
        """This replica's windows, in start order."""
        return tuple(sorted(
            (fault for fault in self.faults
             if fault.replica == replica),
            key=lambda fault: (fault.start, fault.kind.value)))


# ----------------------------------------------------------------------
# Dict / file loading (the codec rules live in repro.specs)
# ----------------------------------------------------------------------
def replica_fault_from_dict(data: Any) -> ReplicaFault:
    """Build a validated :class:`ReplicaFault` from a plain dict."""
    return spec_from_dict(ReplicaFault, data, "replica fault")


def fleet_from_dict(data: Any) -> FleetScenario:
    """Build a validated :class:`FleetScenario` from a plain dict."""
    return spec_from_dict(FleetScenario, data, "fleet scenario")


def fleet_to_dict(scenario: FleetScenario) -> Dict[str, Any]:
    """The inverse of :func:`fleet_from_dict` (exact round-trip)."""
    return spec_to_dict(scenario)


def load_fleet_scenario(path: str) -> FleetScenario:
    """Load a fleet scenario from a JSON (always) or YAML file."""
    return load_spec(FleetScenario, path, "fleet scenario")


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
def _replica_crash() -> FleetScenario:
    """One replica dies mid-run and comes back; retries mop up."""
    return FleetScenario(
        name="replica-crash",
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_CRASH,
                             replica=1, start=900.0, duration=600.0),),
        redispatch=RedispatchPolicy(max_retries=2))


def _gray_failure() -> FleetScenario:
    """A replica answers 4x slow; only the breaker notices."""
    return FleetScenario(
        name="gray-failure",
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_SLOW,
                             replica=0, start=600.0, duration=1800.0,
                             magnitude=4.0),),
        health=HealthPolicy(failure_threshold=3, cooldown_s=300.0,
                            slow_tolerance=3.0),
        redispatch=RedispatchPolicy(max_retries=1))


def _rolling_restart() -> FleetScenario:
    """Staggered restarts across the fleet, each with a cold cache."""
    return FleetScenario(
        name="rolling-restart",
        faults=tuple(
            ReplicaFault(ReplicaFaultKind.REPLICA_RESTART,
                         replica=replica,
                         start=600.0 + 400.0 * replica,
                         duration=120.0, magnitude=2.0,
                         warmup_s=240.0)
            for replica in range(4)),
        redispatch=RedispatchPolicy(max_retries=2))


def _none() -> FleetScenario:
    """The armed-but-idle scenario: no faults, no hedging.

    Chaos-agnostic callers (the continuous-batching fleet path, CI
    bit-identity checks) can name an explicitly inert scenario; by
    the :attr:`FleetScenario.idle` contract a run under it is
    bit-identical to running with no chaos at all.
    """
    return FleetScenario(name="none")


def _bursty_chaos() -> FleetScenario:
    """A crash and a gray failure overlapping the traffic burst."""
    return FleetScenario(
        name="bursty-chaos",
        faults=(
            ReplicaFault(ReplicaFaultKind.REPLICA_CRASH,
                         replica=2, start=700.0, duration=500.0),
            ReplicaFault(ReplicaFaultKind.REPLICA_SLOW,
                         replica=0, start=1000.0, duration=900.0,
                         magnitude=5.0),
        ),
        health=HealthPolicy(failure_threshold=3, cooldown_s=300.0),
        redispatch=RedispatchPolicy(max_retries=2))


_PRESETS = {
    "none": _none,
    "replica-crash": _replica_crash,
    "gray-failure": _gray_failure,
    "rolling-restart": _rolling_restart,
    "bursty-chaos": _bursty_chaos,
}


def builtin_fleet_scenarios() -> Dict[str, FleetScenario]:
    """Every built-in fleet scenario, by name (sorted)."""
    return build_all(_PRESETS)


def get_fleet_scenario(name: str) -> FleetScenario:
    """Look up one preset; unknown names raise a one-line error."""
    return lookup(_PRESETS, name, "fleet scenario")
