"""Fleet-level resilience: chaos, health-checked failover, autoscaling.

:class:`~repro.serving.replicas.MultiReplicaSimulator` answers "what
does a *static, healthy* fleet do"; this module puts the **control
plane** under test.  A :class:`FleetSimulator` drives a replica fleet
through an arrival trace (see :mod:`repro.workloads`) while:

* replicas crash, run slow (gray failure), or restart cold according
  to a :class:`~repro.faults.fleet.FleetScenario` schedule;
* a health-checked dispatcher ejects replicas through a per-replica
  **circuit breaker** (CLOSED -> OPEN after ``failure_threshold``
  consecutive failures -> HALF_OPEN probes after ``cooldown_s`` ->
  CLOSED again), re-dispatches requests killed by a crash under a
  retry budget, and optionally hedges slow dispatches;
* a reactive **autoscaler** (optional) walks window boundaries,
  scaling up on burn-rate / backlog signals with a provisioning lag
  and scaling down through drain after sustained low utilization.

The simulation is one deterministic sequential pass in arrival
order: every decision depends only on the trace, the service times,
and the scenario schedule — never on wall clock or hash order.
With an idle scenario (no faults, no hedging) and no autoscaler the
engine commits ``start = max(arrival, free)`` / ``finish = start +
service`` in exactly the float-op order of the static round-robin
fleet, so it reproduces :class:`ScaleOutReport` timelines bit for
bit — the property ``tests/serving/test_fleet.py`` pins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.faults.fleet import (FleetScenario, ReplicaFaultKind,
                                get_fleet_scenario)
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.degradation import PlanTable
from repro.serving.pool import run_process_sweep, use_pool
from repro.serving.simulator import ServingSimulator, validate_arrivals
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.runtime import Telemetry
from repro.workloads.spec import TraceSpec, get_trace

#: EMA weight for the autoscaler's demand filter (per window).
_EMA_ALPHA = 0.3

__all__ = [
    "AutoscalerPolicy",
    "ChaosStats",
    "FleetPreset",
    "FleetReport",
    "FleetSimulator",
    "builtin_fleet_presets",
    "get_fleet_preset",
    "run_fleet_cell",
    "sweep_fleet_grid",
]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Reactive scaling signals and actuation limits.

    Every ``interval_s`` the controller computes a replica target
    from the window's **demand rate** (work-seconds committed per
    second, EMA-smoothed, projected one provisioning lag ahead on
    rising trends, divided by ``target_utilization``) and reads two
    emergency signals: the SLO **burn rate** of requests finished
    since the last boundary (fraction over ``slo_p95_s``, divided by
    ``error_budget``) and the **backlog** (queued work-seconds per
    active replica).  An emergency bumps the target at least one
    above current capacity.  Scale-up provisions the gap, joining
    ``provisioning_lag_s`` later; after ``scale_down_hold``
    consecutive windows with the target under the active count, the
    surplus drains (highest ids, no new work, finish their queues).
    """

    slo_p95_s: float
    min_replicas: int = 1
    max_replicas: int = 64
    interval_s: float = 60.0
    provisioning_lag_s: float = 120.0
    target_utilization: float = 0.75
    scale_up_backlog_s: float = 30.0
    burn_threshold: float = 2.0
    error_budget: float = 0.05
    scale_down_hold: int = 3

    def __post_init__(self) -> None:
        if self.slo_p95_s <= 0.0:
            raise ConfigurationError(
                f"slo_p95_s must be positive, got {self.slo_p95_s}")
        if self.min_replicas < 1:
            raise ConfigurationError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                f"max_replicas must be >= min_replicas, "
                f"got {self.max_replicas} < {self.min_replicas}")
        if self.interval_s <= 0.0:
            raise ConfigurationError(
                f"interval_s must be positive, got {self.interval_s}")
        if self.provisioning_lag_s < 0.0:
            raise ConfigurationError(
                f"provisioning_lag_s must be >= 0, "
                f"got {self.provisioning_lag_s}")
        if self.scale_up_backlog_s <= 0.0:
            raise ConfigurationError(
                f"scale_up_backlog_s must be positive, "
                f"got {self.scale_up_backlog_s}")
        if self.burn_threshold <= 0.0:
            raise ConfigurationError(
                f"burn_threshold must be positive, "
                f"got {self.burn_threshold}")
        if not 0.0 < self.error_budget <= 1.0:
            raise ConfigurationError(
                f"error_budget must be in (0, 1], "
                f"got {self.error_budget}")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ConfigurationError(
                f"target_utilization must be in (0, 1], "
                f"got {self.target_utilization}")
        if self.scale_down_hold < 1:
            raise ConfigurationError(
                f"scale_down_hold must be >= 1, "
                f"got {self.scale_down_hold}")


@dataclass
class ChaosStats:
    """Control-plane accounting for one fleet run."""

    crash_failures: int = 0      # attempts refused/killed by a down replica
    killed_in_flight: int = 0    # of those, killed mid-service
    retries: int = 0             # re-dispatch attempts issued
    redispatched: int = 0        # requests served on a retry attempt
    drops: int = 0               # requests lost after the retry budget
    no_healthy_drops: int = 0    # dropped with every breaker open
    hedges: int = 0              # duplicate attempts issued
    hedge_wins: int = 0          # hedge finished first
    slow_attempts: int = 0       # gray-failure attempts over tolerance
    breaker_ejections: int = 0   # CLOSED/HALF_OPEN -> OPEN transitions
    breaker_probes: int = 0      # HALF_OPEN attempts allowed through
    breaker_closes: int = 0      # HALF_OPEN -> CLOSED recoveries
    scale_ups: int = 0           # autoscaler scale-up decisions
    scale_downs: int = 0         # autoscaler drain decisions
    provisioned: int = 0         # replicas added over the run
    drained: int = 0             # replicas drained over the run
    replica_seconds: float = 0.0  # integral of active replicas over time

    def as_dict(self) -> Dict[str, float]:
        return {
            "crash_failures": self.crash_failures,
            "killed_in_flight": self.killed_in_flight,
            "retries": self.retries,
            "redispatched": self.redispatched,
            "drops": self.drops,
            "no_healthy_drops": self.no_healthy_drops,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "slow_attempts": self.slow_attempts,
            "breaker_ejections": self.breaker_ejections,
            "breaker_probes": self.breaker_probes,
            "breaker_closes": self.breaker_closes,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "provisioned": self.provisioned,
            "drained": self.drained,
            "replica_seconds": self.replica_seconds,
        }


@dataclass
class FleetReport:
    """One fleet run: timelines, per-window control state, accounting.

    The served timeline (``served_index`` / ``starts`` / ``finishes``
    / ``assignment``) is in global arrival order; dropped requests
    carry the fault kind that exhausted their budget.  The invariant
    ``n_served + n_dropped == n_offered`` holds by construction and
    is re-checked in ``__post_init__``.
    """

    workload: WorkloadVector
    arrivals: np.ndarray
    served_index: np.ndarray
    starts: np.ndarray
    finishes: np.ndarray
    assignment: np.ndarray
    dropped_index: np.ndarray
    dropped_reasons: Tuple[str, ...]
    stats: ChaosStats
    scenario: FleetScenario
    #: Control-plane timeline: ``(time, active_replicas)`` after each
    #: membership change, starting with the initial fleet at t=0.
    scale_events: Tuple[Tuple[float, int], ...]
    window_s: float
    n_replicas_initial: int
    autoscaled: bool

    def __post_init__(self) -> None:
        if self.n_served + self.n_dropped != self.n_offered:
            raise ConfigurationError(
                f"fleet accounting violated: {self.n_served} served "
                f"+ {self.n_dropped} dropped != {self.n_offered} "
                "offered")

    # -- scalar accounting --------------------------------------------
    @property
    def n_offered(self) -> int:
        return int(self.arrivals.size)

    @property
    def n_served(self) -> int:
        return int(self.served_index.size)

    @property
    def n_dropped(self) -> int:
        return int(self.dropped_index.size)

    @property
    def availability(self) -> float:
        return (self.n_served / self.n_offered if self.n_offered
                else 1.0)

    @property
    def makespan(self) -> float:
        if self.finishes.size:
            return float(np.max(self.finishes))
        return float(self.arrivals[-1]) if self.arrivals.size else 0.0

    @property
    def replica_seconds(self) -> float:
        return self.stats.replica_seconds

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank-ceil percentile over served latencies."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}")
        if not self.served_index.size:
            raise ConfigurationError(
                "no requests were served")
        latencies = np.sort(
            self.finishes - self.arrivals[self.served_index])
        rank = max(1, math.ceil(fraction * latencies.size))
        return float(latencies[rank - 1])

    def per_class_p95(self) -> Dict[str, float]:
        """p95 latency per request class (distinct workload shape)."""
        out: Dict[str, float] = {}
        codes = self.workload.codes[self.served_index]
        latencies = self.finishes - self.arrivals[self.served_index]
        for code, shape in enumerate(self.workload.shapes):
            mask = codes == code
            if not bool(mask.any()):
                continue
            sub = np.sort(latencies[mask])
            rank = max(1, math.ceil(0.95 * sub.size))
            key = (f"{shape.batch_size}x{shape.input_len}"
                   f"x{shape.output_len}")
            out[key] = float(sub[rank - 1])
        return out

    def cost_per_million_requests(self, usd_per_hour: float) -> float:
        """Fleet cost per million *served* requests."""
        if usd_per_hour < 0.0:
            raise ConfigurationError(
                f"usd_per_hour must be >= 0, got {usd_per_hour}")
        if not self.n_served:
            return float("inf")
        dollars = self.replica_seconds / 3600.0 * usd_per_hour
        return dollars / (self.n_served / 1e6)

    # -- per-window control channels ----------------------------------
    @property
    def n_windows(self) -> int:
        horizon = max(self.makespan,
                      self.scale_events[-1][0]
                      if self.scale_events else 0.0)
        return max(1, int(math.ceil(horizon / self.window_s))) \
            if horizon > 0.0 else 1

    def window_edges(self) -> np.ndarray:
        return np.arange(self.n_windows + 1, dtype=np.float64) \
            * self.window_s

    def replica_counts(self,
                       edges: Optional[np.ndarray] = None
                       ) -> np.ndarray:
        """Active replicas at each window start (step-sampled)."""
        if edges is None:
            edges = self.window_edges()
        times = np.array([t for t, __ in self.scale_events],
                         dtype=np.float64)
        counts = np.array([n for __, n in self.scale_events],
                          dtype=np.int64)
        if times.size == 0:
            return np.full(edges.size - 1, self.n_replicas_initial,
                           dtype=np.int64)
        slot = np.searchsorted(times, edges[:-1], side="right") - 1
        return counts[np.clip(slot, 0, counts.size - 1)]

    def windowed_availability(
            self, edges: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-window ``(arrived, dropped, availability)`` by arrival
        time; windows with no arrivals report availability 1.0."""
        if edges is None:
            edges = self.window_edges()
        arrived, __ = np.histogram(self.arrivals, bins=edges)
        dropped, __ = np.histogram(
            self.arrivals[self.dropped_index], bins=edges)
        with np.errstate(invalid="ignore"):
            availability = np.where(
                arrived > 0, 1.0 - dropped / np.maximum(arrived, 1),
                1.0)
        return arrived.astype(np.int64), dropped.astype(np.int64), \
            availability.astype(np.float64)

    def timeseries(self, n_windows: int = 64,
                   assume_sorted: Optional[bool] = None):
        """The windowed observability view with the control-plane
        channels (replica count, availability) attached."""
        from repro.telemetry.timeseries import compute_timeseries

        series = compute_timeseries(
            self.arrivals[self.served_index], self.starts,
            self.finishes, n_windows=n_windows,
            dropped_arrivals=self.arrivals[self.dropped_index],
            assume_sorted=assume_sorted)
        edges = series.grid.edges
        __, ___, availability = self.windowed_availability(edges)
        series.replicas = self.replica_counts(edges)
        series.availability = availability
        return series

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the ``repro fleet`` payload core)."""
        arrived, dropped, availability = self.windowed_availability()
        return {
            "scenario": self.scenario.name,
            "n_offered": self.n_offered,
            "n_served": self.n_served,
            "n_dropped": self.n_dropped,
            "availability": self.availability,
            "makespan_s": self.makespan,
            "replica_seconds": self.replica_seconds,
            "autoscaled": self.autoscaled,
            "window_s": self.window_s,
            "replica_counts": self.replica_counts().tolist(),
            "window_arrived": arrived.tolist(),
            "window_dropped": dropped.tolist(),
            "window_availability": availability.tolist(),
            "per_class_p95_s": self.per_class_p95(),
            "stats": self.stats.as_dict(),
            "drop_reasons": sorted(set(self.dropped_reasons)),
        }


class _Replica:
    """Mutable per-replica state: queue head, breaker, fault windows."""

    __slots__ = ("rid", "free_at", "active_from", "down", "slow",
                 "state", "consecutive", "open_until", "probes_left")

    def __init__(self, rid: int, active_from: float,
                 scenario: FleetScenario) -> None:
        self.rid = rid
        self.free_at = active_from
        self.active_from = active_from
        down: List[Tuple[float, float, str]] = []
        slow: List[Tuple[float, float, float]] = []
        for fault in scenario.faults_for(rid):
            if fault.kind is ReplicaFaultKind.REPLICA_SLOW:
                slow.append((fault.start, fault.end, fault.magnitude))
            elif fault.kind is ReplicaFaultKind.REPLICA_CRASH:
                down.append((fault.start, fault.end,
                             fault.kind.value))
            else:  # restart: downtime, then a warm-up slow window
                down.append((fault.start, fault.end,
                             fault.kind.value))
                if fault.warmup_s > 0.0:
                    slow.append((fault.end,
                                 fault.end + fault.warmup_s,
                                 fault.magnitude))
        self.down = down
        self.slow = slow
        self.state = "closed"
        self.consecutive = 0
        self.open_until = 0.0
        self.probes_left = 0

    def slow_factor(self, time: float) -> float:
        factor = 1.0
        for (w0, w1, scale) in self.slow:
            if w0 <= time < w1 and scale > factor:
                factor = scale
        return factor


class _Attempt:
    """Outcome of dispatching one request to one replica."""

    __slots__ = ("ok", "start", "finish", "fail_time", "reason",
                 "in_flight", "slow_factor")

    def __init__(self, ok: bool, start: float = 0.0,
                 finish: float = 0.0, fail_time: float = 0.0,
                 reason: str = "", in_flight: bool = False,
                 slow_factor: float = 1.0) -> None:
        self.ok = ok
        self.start = start
        self.finish = finish
        self.fail_time = fail_time
        self.reason = reason
        self.in_flight = in_flight
        self.slow_factor = slow_factor


class FleetSimulator:
    """A replica fleet with a health-checked dispatcher on top.

    ``scenario`` schedules replica chaos (default: idle);
    ``autoscaler`` enables reactive scaling (default: the fleet stays
    at ``n_replicas``).  ``dispatch`` picks the policy over the
    healthy rotation: ``round-robin`` or ``least-loaded``
    (join-earliest-free) — both reproduce the static
    :class:`MultiReplicaSimulator` fleet bit for bit under an idle
    scenario.  Least-loaded is the resilient choice under chaos and
    autoscaling: it drains the backlog stranded on loaded replicas
    through whatever capacity is healthy.
    """

    def __init__(self, estimator, n_replicas: int = 1,
                 scenario: Optional[FleetScenario] = None,
                 autoscaler: Optional[AutoscalerPolicy] = None,
                 dispatch: str = "round-robin",
                 telemetry: Optional[Telemetry] = None) -> None:
        if n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {n_replicas}")
        from repro.serving.replicas import DISPATCH_POLICIES

        if dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"unknown dispatch policy {dispatch!r}; "
                f"known policies: {', '.join(DISPATCH_POLICIES)}")
        self.estimator = estimator
        self.n_replicas = n_replicas
        self.dispatch = dispatch
        self.scenario = scenario or FleetScenario(name="idle")
        self.autoscaler = autoscaler
        if (autoscaler is not None
                and autoscaler.min_replicas > n_replicas):
            raise ConfigurationError(
                f"autoscaler.min_replicas ({autoscaler.min_replicas})"
                f" exceeds the initial fleet size ({n_replicas})")
        self._simulator = ServingSimulator(estimator,
                                           telemetry=telemetry)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence, arrivals: Sequence[float],
            window_s: Optional[float] = None) -> FleetReport:
        """Serve ``requests`` (a :class:`WorkloadVector` or request
        sequence) through the fleet along ``arrivals``."""
        workload = (requests if isinstance(requests, WorkloadVector)
                    else WorkloadVector.from_requests(requests))
        trace = validate_arrivals(arrivals)
        if trace.size != workload.n_requests:
            raise ConfigurationError(
                "requests and arrivals must have equal length")
        if trace.size == 0:
            raise ConfigurationError("workload must contain requests")
        telemetry = self._simulator._active_telemetry()
        services = PlanTable(self.estimator).service_times(workload)
        report = self._simulate(workload, trace, services, window_s)
        if telemetry is not None:
            self._emit_telemetry(report, telemetry)
        return report

    # ------------------------------------------------------------------
    def _simulate(self, workload: WorkloadVector, trace: np.ndarray,
                  services: np.ndarray,
                  window_s: Optional[float]) -> FleetReport:
        scenario = self.scenario
        policy = self.autoscaler
        health = scenario.health
        redispatch = scenario.redispatch
        stats = ChaosStats()
        horizon = float(trace[-1]) if trace.size else 0.0
        if window_s is None:
            window_s = (policy.interval_s if policy is not None
                        else max(horizon / 64.0, 1e-9))

        replicas: Dict[int, _Replica] = {
            rid: _Replica(rid, 0.0, scenario)
            for rid in range(self.n_replicas)}
        rotation: List[int] = sorted(replicas)
        pointer = 0
        scale_events: List[Tuple[float, int]] = [(0.0, len(rotation))]
        pending: List[Tuple[float, int]] = []  # (activation time, rid)
        retired: List[Tuple[float, float]] = []  # (from, to) spans

        # Autoscaler state.
        next_boundary = (policy.interval_s if policy is not None
                         else float("inf"))
        finish_heap: List[Tuple[float, bool]] = []
        busy_since_boundary = 0.0
        prev_rate = 0.0
        low_streak = 0

        n = trace.size
        served_idx: List[int] = []
        starts: List[float] = []
        finishes: List[float] = []
        assignment: List[int] = []
        dropped_idx: List[int] = []
        dropped_reasons: List[str] = []
        hedging = redispatch.hedging
        least_loaded = self.dispatch == "least-loaded"

        def activate(time: float, rid: int) -> None:
            nonlocal pointer
            replicas[rid] = _Replica(rid, time, scenario)
            rotation.append(rid)
            rotation.sort()
            scale_events.append((time, len(rotation)))

        def drain(time: float, rid: int) -> None:
            nonlocal pointer
            replica = replicas.pop(rid)
            position = rotation.index(rid)
            rotation.remove(rid)
            if position < pointer:
                pointer -= 1
            if rotation:
                pointer %= len(rotation)
            else:
                pointer = 0
            end = max(replica.free_at, time)
            retired.append((replica.active_from, end))
            scale_events.append((time, len(rotation)))

        def boundary(time: float) -> None:
            nonlocal busy_since_boundary, low_streak, prev_rate
            assert policy is not None
            finished = bad = 0
            while finish_heap and finish_heap[0][0] <= time:
                __, was_bad = heapq.heappop(finish_heap)
                finished += 1
                bad += was_bad
            burn = ((bad / finished) / policy.error_budget
                    if finished else 0.0)
            active = len(rotation)
            capacity = active + len(pending)
            backlog = sum(max(0.0, replicas[rid].free_at - time)
                          for rid in rotation)
            per_replica_backlog = backlog / active if active else 0.0
            demand_rate = busy_since_boundary / policy.interval_s
            # Feed-forward on a smoothed demand signal: capacity
            # ordered now arrives one provisioning lag late, so
            # project the (EMA-filtered) rising trend that far ahead.
            # Falling demand is taken at face value — the drain path
            # handles it.  Raw window-to-window deltas are Poisson
            # noise; differencing the EMA keeps the lead term from
            # amplifying them.
            smoothed = (_EMA_ALPHA * demand_rate
                        + (1.0 - _EMA_ALPHA) * prev_rate)
            lead = 1.0 + policy.provisioning_lag_s / policy.interval_s
            projected = smoothed + max(
                0.0, smoothed - prev_rate) * lead
            target = int(math.ceil(
                projected / policy.target_utilization))
            prev_rate = smoothed
            if (burn >= policy.burn_threshold
                    or per_replica_backlog
                    > policy.scale_up_backlog_s):
                target = max(target, capacity + 1)
            target = min(max(target, policy.min_replicas),
                         policy.max_replicas)
            if target > capacity:
                add = target - capacity
                stats.scale_ups += 1
                stats.provisioned += add
                for __ in range(add):
                    rid = _next_replica_id(replicas, pending)
                    pending.append(
                        (time + policy.provisioning_lag_s, rid))
                pending.sort()
                low_streak = 0
            elif target < active and not pending:
                low_streak += 1
                if (low_streak >= policy.scale_down_hold
                        and active > policy.min_replicas):
                    surplus = min(active - target,
                                  active - policy.min_replicas)
                    stats.scale_downs += 1
                    stats.drained += surplus
                    for __ in range(surplus):
                        drain(time, rotation[-1])
            else:
                low_streak = 0
            busy_since_boundary = 0.0

        def advance_control(now: float) -> None:
            nonlocal next_boundary
            while True:
                activation = pending[0][0] if pending else float("inf")
                upcoming = min(activation, next_boundary)
                if upcoming > now:
                    return
                if activation <= next_boundary:
                    time, rid = pending.pop(0)
                    activate(time, rid)
                else:
                    boundary(next_boundary)
                    next_boundary += policy.interval_s

        def refresh(replica: _Replica, effective: float) -> None:
            if (replica.state == "open"
                    and effective >= replica.open_until):
                replica.state = "half-open"
                replica.probes_left = health.half_open_probes

        def eligible(effective: float) -> Optional[int]:
            """Next replica the dispatcher trusts at ``effective``
            (round-robin advances the rotation pointer past the pick;
            least-loaded joins the earliest-free candidate)."""
            nonlocal pointer
            active = len(rotation)
            if least_loaded:
                best_key = None
                best_rid = -1
                for rid in rotation:
                    replica = replicas[rid]
                    refresh(replica, effective)
                    if replica.state == "open":
                        continue
                    if (replica.state == "half-open"
                            and replica.probes_left <= 0):
                        continue
                    key = (replica.free_at, rid)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_rid = rid
                if best_key is None:
                    return None
                chosen = replicas[best_rid]
                if chosen.state == "half-open":
                    chosen.probes_left -= 1
                    stats.breaker_probes += 1
                return best_rid
            for offset in range(active):
                position = (pointer + offset) % active
                rid = rotation[position]
                replica = replicas[rid]
                refresh(replica, effective)
                if replica.state == "open":
                    continue
                if replica.state == "half-open":
                    if replica.probes_left <= 0:
                        continue
                    replica.probes_left -= 1
                    stats.breaker_probes += 1
                pointer = (position + 1) % active
                return rid
            return None

        def attempt(rid: int, effective: float,
                    service: float) -> _Attempt:
            replica = replicas[rid]
            start = effective if effective > replica.free_at \
                else replica.free_at
            for (w0, w1, kind) in replica.down:
                if start >= w1:
                    continue
                if start >= w0:
                    return _Attempt(
                        False,
                        fail_time=effective if effective > w0 else w0,
                        reason=kind)
                factor = replica.slow_factor(start)
                finish = start + (service if factor == 1.0
                                  else service * factor)
                if finish > w0:
                    return _Attempt(False, fail_time=w0, reason=kind,
                                    in_flight=True)
                return _Attempt(True, start=start, finish=finish,
                                slow_factor=factor)
            factor = replica.slow_factor(start)
            finish = start + (service if factor == 1.0
                              else service * factor)
            return _Attempt(True, start=start, finish=finish,
                            slow_factor=factor)

        def record_failure(rid: int, time: float) -> None:
            replica = replicas.get(rid)
            if replica is None:
                return
            replica.consecutive += 1
            if replica.state == "half-open" or (
                    replica.state == "closed"
                    and replica.consecutive
                    >= health.failure_threshold):
                replica.state = "open"
                replica.open_until = time + health.cooldown_s
                replica.consecutive = 0
                stats.breaker_ejections += 1

        def record_success(rid: int, slow: bool) -> None:
            replica = replicas.get(rid)
            if replica is None:
                return
            if slow:
                stats.slow_attempts += 1
                record_failure(rid, replica.free_at)
                return
            if replica.state == "half-open":
                if replica.probes_left <= 0:
                    replica.state = "closed"
                    stats.breaker_closes += 1
            replica.consecutive = 0

        def commit(rid: int, outcome: _Attempt,
                   service: float) -> None:
            nonlocal busy_since_boundary
            replica = replicas[rid]
            replica.free_at = outcome.finish
            busy_since_boundary += outcome.finish - outcome.start

        for i in range(n):
            arrival = float(trace[i])
            advance_control(arrival)
            service = float(services[i])
            effective = arrival
            attempts_left = redispatch.max_retries + 1
            first = True
            outcome: Optional[_Attempt] = None
            winner = -1
            last_reason = "no-healthy-replica"
            while attempts_left > 0:
                rid = eligible(effective)
                if rid is None:
                    break
                attempts_left -= 1
                if not first:
                    stats.retries += 1
                candidate = attempt(rid, effective, service)
                if not candidate.ok:
                    stats.crash_failures += 1
                    if candidate.in_flight:
                        stats.killed_in_flight += 1
                        replicas[rid].free_at = candidate.fail_time
                    record_failure(rid, candidate.fail_time)
                    effective = candidate.fail_time
                    last_reason = candidate.reason
                    first = False
                    continue
                commit(rid, candidate, service)
                slow = (candidate.slow_factor
                        >= health.slow_tolerance)
                record_success(rid, slow)
                outcome = candidate
                winner = rid
                if not first:
                    stats.redispatched += 1
                # Hedge a queued dispatch: duplicate on the next
                # healthy replica, earlier finish wins, both
                # replicas' time is spent.
                if (hedging and candidate.start - effective
                        > redispatch.hedge_after_s):
                    other = eligible(effective)
                    if other is not None and other != rid:
                        twin = attempt(other, effective, service)
                        if twin.ok:
                            stats.hedges += 1
                            commit(other, twin, service)
                            slow_twin = (twin.slow_factor
                                         >= health.slow_tolerance)
                            record_success(other, slow_twin)
                            if twin.finish < candidate.finish:
                                stats.hedge_wins += 1
                                outcome = twin
                                winner = other
                        else:
                            stats.crash_failures += 1
                            if twin.in_flight:
                                stats.killed_in_flight += 1
                                replicas[other].free_at = \
                                    twin.fail_time
                            record_failure(other, twin.fail_time)
                break
            if outcome is None:
                stats.drops += 1
                if last_reason == "no-healthy-replica":
                    stats.no_healthy_drops += 1
                dropped_idx.append(i)
                dropped_reasons.append(last_reason)
                continue
            served_idx.append(i)
            starts.append(outcome.start)
            finishes.append(outcome.finish)
            assignment.append(winner)
            if policy is not None:
                heapq.heappush(
                    finish_heap,
                    (outcome.finish,
                     outcome.finish - arrival > policy.slo_p95_s))

        # Let the autoscaler keep walking boundaries until the queue
        # drains, so scale-down (and its replica-seconds savings) is
        # accounted past the last arrival.
        if policy is not None:
            tail = max([replicas[rid].free_at for rid in rotation]
                       + [horizon])
            advance_control(tail)

        end_time = max([f for f in finishes] + [horizon]) \
            if finishes or horizon else 0.0
        for rid in rotation:
            replica = replicas[rid]
            retired.append((replica.active_from,
                            max(end_time, replica.active_from)))
        stats.replica_seconds = math.fsum(
            end - begin for begin, end in retired)

        return FleetReport(
            workload=workload, arrivals=trace,
            served_index=np.asarray(served_idx, dtype=np.int64),
            starts=np.asarray(starts, dtype=np.float64),
            finishes=np.asarray(finishes, dtype=np.float64),
            assignment=np.asarray(assignment, dtype=np.int64),
            dropped_index=np.asarray(dropped_idx, dtype=np.int64),
            dropped_reasons=tuple(dropped_reasons),
            stats=stats, scenario=scenario,
            scale_events=tuple(scale_events),
            window_s=window_s,
            n_replicas_initial=self.n_replicas,
            autoscaled=policy is not None)

    # ------------------------------------------------------------------
    def _emit_telemetry(self, report: FleetReport,
                        telemetry: Telemetry) -> None:
        system = self.estimator.system.name
        model = self.estimator.spec.name
        labels = {"system": system, "model": model}
        telemetry.metrics.gauge("fleet.replicas", **labels).set(
            float(report.replica_counts()[-1]))
        telemetry.metrics.gauge("fleet.replica_seconds",
                                **labels).set(report.replica_seconds)
        stats = report.stats
        for key, value in (("retries", stats.retries),
                           ("drops", stats.drops),
                           ("hedges", stats.hedges),
                           ("ejections", stats.breaker_ejections),
                           ("scale_ups", stats.scale_ups),
                           ("scale_downs", stats.scale_downs)):
            if value:
                telemetry.metrics.counter(
                    "fleet.control", event=key, **labels).inc(value)


def _next_replica_id(replicas: Dict[int, _Replica],
                     pending: List[Tuple[float, int]]) -> int:
    """Lowest id neither active nor pending (ids are reusable so the
    chaos schedule keeps addressing the same logical slots)."""
    taken = set(replicas) | {rid for __, rid in pending}
    rid = 0
    while rid in taken:
        rid += 1
    return rid


# ----------------------------------------------------------------------
# Presets: trace + chaos + fleet policy combinations for the CLI/CI
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetPreset:
    """A ready-to-run fleet experiment: a trace, a chaos scenario,
    and the fleet policy to face them with."""

    name: str
    trace: TraceSpec
    chaos: FleetScenario
    n_replicas: int
    slo_p95_s: float
    dispatch: str = "round-robin"
    autoscaler: Optional[AutoscalerPolicy] = None

    def simulator(self, estimator,
                  telemetry: Optional[Telemetry] = None
                  ) -> FleetSimulator:
        return FleetSimulator(
            estimator, n_replicas=self.n_replicas,
            scenario=self.chaos, autoscaler=self.autoscaler,
            dispatch=self.dispatch, telemetry=telemetry)


def _preset_bursty_chaos() -> FleetPreset:
    return FleetPreset(
        name="bursty-chaos",
        trace=get_trace("bursty").scaled(20_000),
        chaos=get_fleet_scenario("bursty-chaos"),
        n_replicas=4, slo_p95_s=120.0)


def _preset_replica_crash() -> FleetPreset:
    return FleetPreset(
        name="replica-crash",
        trace=get_trace("bursty").scaled(20_000),
        chaos=get_fleet_scenario("replica-crash"),
        n_replicas=4, slo_p95_s=120.0)


def _preset_gray_failure() -> FleetPreset:
    return FleetPreset(
        name="gray-failure",
        trace=get_trace("steady").scaled(20_000),
        chaos=get_fleet_scenario("gray-failure"),
        n_replicas=3, slo_p95_s=120.0)


def _preset_diurnal_autoscale() -> FleetPreset:
    # Tuned so the reactive fleet meets the per-class p95 SLO on the
    # diurnal trace with >= 30% fewer replica-seconds than the
    # static fleet replicas_needed() sizes for the same trace.
    return FleetPreset(
        name="diurnal-autoscale",
        trace=TraceSpec(name="diurnal-hot", kind="diurnal",
                        n_requests=7_000, rate_per_s=0.96,
                        amplitude=0.8, period_s=3600.0, seed=2),
        chaos=FleetScenario(name="idle"),
        n_replicas=4, slo_p95_s=15.0, dispatch="least-loaded",
        autoscaler=AutoscalerPolicy(
            slo_p95_s=15.0, min_replicas=1, max_replicas=16,
            interval_s=60.0, provisioning_lag_s=120.0,
            target_utilization=0.9, scale_up_backlog_s=30.0,
            burn_threshold=2.0, error_budget=0.05,
            scale_down_hold=3))


_FLEET_PRESETS = {
    "bursty-chaos": _preset_bursty_chaos,
    "replica-crash": _preset_replica_crash,
    "gray-failure": _preset_gray_failure,
    "diurnal-autoscale": _preset_diurnal_autoscale,
}


def builtin_fleet_presets() -> Dict[str, FleetPreset]:
    """Every built-in fleet preset, by name (sorted)."""
    return {name: _FLEET_PRESETS[name]()
            for name in sorted(_FLEET_PRESETS)}


def get_fleet_preset(name: str) -> FleetPreset:
    """Look up one preset; unknown names raise a one-line error."""
    try:
        build = _FLEET_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_FLEET_PRESETS))
        raise ConfigurationError(
            f"unknown fleet preset {name!r}; "
            f"known presets: {known}") from None
    return build()


# ----------------------------------------------------------------------
# Trace x chaos x fleet-size grid sweeps
# ----------------------------------------------------------------------
def run_fleet_cell(estimator, trace_name: str, chaos_name: str,
                   n_replicas: int, *, shapes: Sequence,
                   seed: int = 0, n_requests: int = 0
                   ) -> Dict[str, Any]:
    """One grid cell: a whole :class:`FleetSimulator` run, summarized.

    The trace and chaos presets rebuild by name (both are seeded
    specs, so regeneration is deterministic), the request mix samples
    from the shared ``(seed, shapes)`` contract, and only the scalar
    cross-section returns — the same dict whether the cell runs
    in process or inside a pool worker.
    ``n_requests > 0`` rescales the trace (0 keeps the preset size).
    """
    trace_spec = get_trace(trace_name)
    if n_requests > 0:
        trace_spec = trace_spec.scaled(n_requests)
    workload = WorkloadVector.sample_mix(
        tuple(shapes), trace_spec.n_requests, seed=seed)
    arrivals = trace_spec.generate()
    scenario = get_fleet_scenario(chaos_name)
    simulator = FleetSimulator(estimator, n_replicas=n_replicas,
                               scenario=scenario)
    report = simulator.run(workload, arrivals)
    return {
        "trace": trace_name,
        "chaos": chaos_name,
        "n_replicas": n_replicas,
        "n_offered": report.n_offered,
        "n_served": report.n_served,
        "n_dropped": report.n_dropped,
        "availability": report.availability,
        "p50_s": report.latency_percentile(0.50),
        "p95_s": report.latency_percentile(0.95),
        "p99_s": report.latency_percentile(0.99),
        "makespan_s": report.makespan,
        "replica_seconds": report.replica_seconds,
    }


def _fleet_cells(estimator, shapes: Sequence, seed: int,
                 n_requests: int,
                 points: Sequence[Tuple[str, str, int]]
                 ) -> List[Dict[str, Any]]:
    """:func:`run_fleet_cell` at every ``(trace, chaos, k)`` point."""
    return [run_fleet_cell(estimator, trace_name, chaos_name, k,
                           shapes=shapes, seed=seed,
                           n_requests=n_requests)
            for trace_name, chaos_name, k in points]


def _fleet_cell_chunk(model: str, system: str, config: LiaConfig,
                      shapes: Tuple[InferenceRequest, ...], seed: int,
                      n_requests: int,
                      points: Sequence[Tuple[str, str, int]]
                      ) -> List[Dict[str, Any]]:
    """:func:`_fleet_cells` in a pool worker, with the estimator
    rebuilt from the zoo by name."""
    estimator = LiaEstimator(get_model(model), get_system(system), config)
    return _fleet_cells(estimator, shapes, seed, n_requests, points)


def sweep_fleet_grid(estimator, trace_names: Sequence[str],
                     chaos_names: Sequence[str],
                     replica_counts: Sequence[int], *,
                     shapes: Sequence, seed: int = 0,
                     n_requests: int = 0,
                     processes: int = 0
                     ) -> List[Dict[str, Any]]:
    """:func:`run_fleet_cell` over trace x chaos x fleet size.

    Cells are independent simulations.  They run in process by default;
    with ``processes > 0`` they fan out over the
    :mod:`repro.serving.pool` process pool, carrying only names, the
    seed, and the (tiny) shape tuple across the process boundary.
    Cell order is the nested product order (traces outermost), and
    results are bit-identical at any ``processes``.
    """
    points = [(trace_name, chaos_name, int(k))
              for trace_name in trace_names
              for chaos_name in chaos_names
              for k in replica_counts]
    if use_pool(estimator, processes):
        return run_process_sweep(
            _fleet_cell_chunk,
            (estimator.spec.name, estimator.system.name,
             estimator.config, tuple(shapes), seed, n_requests),
            points, processes=processes)
    return _fleet_cells(estimator, shapes, seed, n_requests, points)
