"""Fleet-level resilience: chaos, health-checked failover, autoscaling.

:class:`~repro.serving.replicas.MultiReplicaSimulator` is the one FIFO
fleet engine.  Given a ``chaos`` schedule or an ``autoscaler`` it runs
:func:`simulate_fleet`, which puts the fleet's **control plane** under
test while it serves an arrival trace (see :mod:`repro.workloads`):

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
loop commits ``start = max(arrival, free)`` / ``finish = start +
service`` in exactly the float-op order of the static fleet, so it
reproduces :class:`~repro.serving.replicas.ScaleOutReport` timelines
bit for bit — the property ``tests/serving/test_fleet.py`` pins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.fleet import (FleetScenario, ReplicaFaultKind,
                                get_fleet_scenario)
from repro.serving.simulator import ServingReport, nearest_rank
from repro.serving.vectorized import WorkloadVector
from repro.specs import build_all, lookup
from repro.workloads.spec import TraceSpec, get_trace

if TYPE_CHECKING:
    from repro.serving.replicas import MultiReplicaSimulator
    from repro.telemetry.timeseries import ServingTimeseries, WindowGrid

#: EMA weight for the autoscaler's demand filter (per window).
_EMA_ALPHA = 0.3

__all__ = [
    "AutoscalerPolicy",
    "ChaosStats",
    "FleetPreset",
    "FleetReport",
    "builtin_fleet_presets",
    "get_fleet_preset",
    "simulate_fleet",
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
        if not self.slo_p95_s > 0.0:
            raise ConfigurationError(
                f"slo_p95_s must be positive, got {self.slo_p95_s}")
        if self.min_replicas < 1:
            raise ConfigurationError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                f"max_replicas must be >= min_replicas, "
                f"got {self.max_replicas} < {self.min_replicas}")
        if not 0.0 < self.interval_s < math.inf:
            raise ConfigurationError(
                f"interval_s must be positive and finite, "
                f"got {self.interval_s}")
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
        """Every counter, in field order."""
        return {item.name: getattr(self, item.name)
                for item in fields(self)}


class FleetReport(ServingReport):
    """One fleet run: the fleet's report plus per-window control state.

    ``workload``/``arrivals`` are the offered stream; the served
    timeline (``served_index`` / ``starts`` / ``finishes`` /
    ``assignment``) is in global arrival order, and dropped requests
    carry the fault kind that exhausted their budget.  Percentiles are
    exact at every size.
    """

    def __init__(self, workload: WorkloadVector, arrivals: np.ndarray,
                 served_index: np.ndarray, starts: np.ndarray,
                 finishes: np.ndarray, *, assignment: np.ndarray,
                 dropped_index: np.ndarray,
                 dropped_reasons: Sequence[str], stats: ChaosStats,
                 scenario: FleetScenario,
                 scale_events: Tuple[Tuple[float, int], ...],
                 replica_spans: Tuple[Tuple[float, float], ...],
                 window_s: float, n_replicas_initial: int,
                 autoscaled: bool) -> None:
        super().__init__(workload, arrivals, starts, finishes,
                         served_index=served_index,
                         dropped_index=dropped_index,
                         dropped_reasons=dropped_reasons, stats=stats,
                         scenario=scenario,
                         exact_percentile_limit=workload.n_requests)
        self.assignment = assignment
        #: Control-plane timeline: ``(time, active_replicas)`` after
        #: each membership change, starting with the initial fleet at
        #: t=0.
        self.scale_events = scale_events
        #: ``(active_from, end)`` of every replica the run provisioned;
        #: their lengths sum to ``replica_seconds``.
        self.replica_spans = replica_spans
        self.window_s = window_s
        self.n_replicas_initial = n_replicas_initial
        self.autoscaled = autoscaled

    # -- scalar accounting --------------------------------------------
    @property
    def makespan(self) -> float:
        """Last finish; the last arrival when nothing was served."""
        if not self.n_served:
            return float(self.offered_arrivals[-1])
        return super().makespan

    @property
    def replica_seconds(self) -> float:
        """Integral of the provisioned replicas over time."""
        return self.stats.replica_seconds

    @property
    def utilization(self) -> float:
        """Busy seconds over the replica-seconds provisioned."""
        replica_seconds = self.replica_seconds
        return self.busy_s / replica_seconds if replica_seconds else 0.0

    def per_class_p95(self) -> Dict[str, float]:
        """p95 latency per request class (distinct workload shape)."""
        out: Dict[str, float] = {}
        latencies = self.latencies
        for code, shape in enumerate(self.workload.shapes):
            mask = self.workload.codes == code
            if mask.any():
                out[f"{shape.batch_size}x{shape.input_len}"
                    f"x{shape.output_len}"] = nearest_rank(
                        latencies[mask], 0.95)
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
    def grid(self) -> "WindowGrid":
        """``window_s`` windows covering the run and every scale
        event."""
        from repro.telemetry.timeseries import WindowGrid

        horizon = max(self.makespan, self.scale_events[-1][0])
        return WindowGrid.cover(horizon, window_s=self.window_s)

    def replica_counts(self,
                       edges: Optional[np.ndarray] = None
                       ) -> np.ndarray:
        """Active replicas at each window start (step-sampled)."""
        if edges is None:
            edges = self.grid.edges
        times = np.array([t for t, __ in self.scale_events],
                         dtype=np.float64)
        counts = np.array([n for __, n in self.scale_events],
                          dtype=np.int64)
        slot = np.searchsorted(times, edges[:-1], side="right") - 1
        return counts[np.clip(slot, 0, counts.size - 1)]

    def windowed_availability(
            self, edges: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-window ``(arrived, dropped, availability)`` by arrival
        time; windows with no arrivals report availability 1.0."""
        if edges is None:
            edges = self.grid.edges
        arrived, __ = np.histogram(self.offered_arrivals, bins=edges)
        dropped, __ = np.histogram(self.dropped_arrivals, bins=edges)
        availability = np.where(
            arrived > 0, 1.0 - dropped / np.maximum(arrived, 1), 1.0)
        return arrived.astype(np.int64), dropped.astype(np.int64), \
            availability.astype(np.float64)

    def attach_control_channels(self, series: "ServingTimeseries"
                                ) -> "ServingTimeseries":
        """Attach the per-window replica count and availability to
        ``series``, a series of this run, and make its utilization
        each window's busy seconds over the replica-seconds
        provisioned in it
        (:func:`~repro.telemetry.timeseries.timeseries_from_report`
        calls this)."""
        edges = series.grid.edges
        __, ___, availability = self.windowed_availability(edges)
        series.replicas = self.replica_counts(edges)
        series.availability = availability
        # Replica-seconds provisioned in each window: the overlap of
        # every replica's span with it.
        spans = np.asarray(self.replica_spans,
                           dtype=np.float64).reshape(-1, 2)
        provisioned = np.maximum(
            np.minimum(spans[:, 1:], edges[1:])
            - np.maximum(spans[:, :1], edges[:-1]), 0.0).sum(axis=0)
        series.n_servers = provisioned / series.grid.window_s
        return series

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the ``repro fleet`` payload core)."""
        arrived, dropped, availability = self.windowed_availability()
        return {
            "scenario": self.scenario_name,
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

    __slots__ = ("rid", "free_at", "active_from", "faults", "state",
                 "consecutive", "open_until", "probes_left")

    def __init__(self, rid: int, active_from: float,
                 scenario: FleetScenario) -> None:
        self.rid = rid
        self.free_at = active_from
        self.active_from = active_from
        self.faults = scenario.faults_for(rid)
        self.state = "closed"
        self.consecutive = 0
        self.open_until = 0.0
        self.probes_left = 0


class _Attempt:
    """Outcome of dispatching one request to one replica."""

    __slots__ = ("ok", "start", "finish", "fail_time", "reason",
                 "in_flight", "slow_factor")

    def __init__(self, ok: bool, start: float = 0.0,
                 finish: float = 0.0, fail_time: float = 0.0,
                 reason: str = "", *, in_flight: bool,
                 slow_factor: float = 1.0) -> None:
        self.ok = ok
        self.start = start
        self.finish = finish
        self.fail_time = fail_time
        self.reason = reason
        self.in_flight = in_flight
        self.slow_factor = slow_factor


def simulate_fleet(workload: WorkloadVector, trace: np.ndarray,
                   services: np.ndarray, n_replicas: int, dispatch: str,
                   scenario: FleetScenario,
                   policy: Optional[AutoscalerPolicy]) -> FleetReport:
    """The control-plane loop behind a chaos or autoscaled
    :class:`~repro.serving.replicas.MultiReplicaSimulator`: serve the
    stream at the healthy ``services`` times through ``n_replicas``
    replicas under the chaos ``scenario`` and the optional autoscaler
    ``policy``, with a health-checked dispatcher choosing among the
    trusted replicas by ``dispatch``."""
    health = scenario.health
    redispatch = scenario.redispatch
    stats = ChaosStats()
    horizon = float(trace[-1]) if trace.size else 0.0
    window_s = (policy.interval_s if policy is not None
                else max(horizon / 64.0, 1e-9))

    replicas: Dict[int, _Replica] = {
        rid: _Replica(rid, 0.0, scenario) for rid in range(n_replicas)}
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
    least_loaded = dispatch == "least-loaded"

    def activate(time: float, rid: int) -> None:
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
        # Feed-forward on a smoothed demand signal: capacity ordered
        # now arrives one provisioning lag late, so project the
        # (EMA-filtered) rising trend that far ahead.  Falling demand
        # is taken at face value — the drain path handles it.  Raw
        # window-to-window deltas are Poisson noise; differencing the
        # EMA keeps the lead term from amplifying them.
        smoothed = (_EMA_ALPHA * demand_rate
                    + (1.0 - _EMA_ALPHA) * prev_rate)
        lead = 1.0 + policy.provisioning_lag_s / policy.interval_s
        projected = smoothed + max(0.0, smoothed - prev_rate) * lead
        target = int(math.ceil(projected / policy.target_utilization))
        prev_rate = smoothed
        if (burn >= policy.burn_threshold
                or per_replica_backlog > policy.scale_up_backlog_s):
            target = max(target, capacity + 1)
        target = min(max(target, policy.min_replicas),
                     policy.max_replicas)
        if target > capacity:
            add = target - capacity
            stats.scale_ups += 1
            stats.provisioned += add
            for __ in range(add):
                rid = _next_replica_id(replicas, pending)
                pending.append((time + policy.provisioning_lag_s, rid))
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
                assert policy is not None
                boundary(next_boundary)
                next_boundary += policy.interval_s

    def trusted(replica: _Replica, effective: float) -> bool:
        """Refresh the breaker at ``effective``; may a request be
        routed to ``replica``?"""
        if replica.state == "open" and effective >= replica.open_until:
            replica.state = "half-open"
            replica.probes_left = health.half_open_probes
        return replica.state == "closed" or (
            replica.state == "half-open" and replica.probes_left > 0)

    def eligible(effective: float,
                 exclude: Optional[_Replica]) -> Optional[_Replica]:
        """Next replica other than ``exclude`` that the dispatcher
        trusts at ``effective`` (round-robin advances the rotation
        pointer past the pick; least-loaded joins the earliest-free
        candidate).  A half-open pick spends one probe, and every pick
        is attempted."""
        nonlocal pointer
        chosen: Optional[_Replica] = None
        if least_loaded:
            for rid in rotation:
                replica = replicas[rid]
                if replica is not exclude and trusted(
                        replica, effective) and (
                        chosen is None
                        or replica.free_at < chosen.free_at):
                    chosen = replica
        else:
            active = len(rotation)
            for offset in range(active):
                position = (pointer + offset) % active
                replica = replicas[rotation[position]]
                if replica is not exclude and trusted(replica, effective):
                    pointer = (position + 1) % active
                    chosen = replica
                    break
        if chosen is not None and chosen.state == "half-open":
            chosen.probes_left -= 1
            stats.breaker_probes += 1
        return chosen

    def attempt(replica: _Replica, effective: float,
                service: float) -> _Attempt:
        start = effective if effective > replica.free_at \
            else replica.free_at
        factor = max((fault.slow_factor_at(start)
                      for fault in replica.faults), default=1.0)
        finish = start + (service if factor == 1.0
                          else service * factor)
        for fault in replica.faults:
            # The first crash or restart downtime not yet over.
            if (fault.kind is ReplicaFaultKind.REPLICA_SLOW
                    or start >= fault.end):
                continue
            if start >= fault.start:
                return _Attempt(
                    False, fail_time=(effective if effective > fault.start
                                      else fault.start),
                    reason=fault.kind.value, in_flight=False)
            if finish > fault.start:
                return _Attempt(False, fail_time=fault.start,
                                reason=fault.kind.value, in_flight=True)
            break
        return _Attempt(True, start=start, finish=finish,
                        in_flight=False, slow_factor=factor)

    def record_failure(replica: _Replica, time: float) -> None:
        replica.consecutive += 1
        if replica.state == "half-open" or (
                replica.state == "closed"
                and replica.consecutive >= health.failure_threshold):
            replica.state = "open"
            replica.open_until = time + health.cooldown_s
            replica.consecutive = 0
            stats.breaker_ejections += 1

    def failed(replica: _Replica, outcome: _Attempt) -> None:
        """Account an attempt a down replica refused or killed."""
        stats.crash_failures += 1
        if outcome.in_flight:
            stats.killed_in_flight += 1
            replica.free_at = outcome.fail_time
        record_failure(replica, outcome.fail_time)

    def served(replica: _Replica, outcome: _Attempt) -> None:
        """Commit a completed attempt; an attempt slowed past the
        tolerance counts toward the breaker as a failure."""
        nonlocal busy_since_boundary
        replica.free_at = outcome.finish
        busy_since_boundary += outcome.finish - outcome.start
        if outcome.slow_factor >= health.slow_tolerance:
            stats.slow_attempts += 1
            record_failure(replica, replica.free_at)
            return
        if replica.state == "half-open" and replica.probes_left <= 0:
            replica.state = "closed"
            stats.breaker_closes += 1
        replica.consecutive = 0

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
            replica = eligible(effective, None)
            if replica is None:
                break
            attempts_left -= 1
            if not first:
                stats.retries += 1
            candidate = attempt(replica, effective, service)
            if not candidate.ok:
                failed(replica, candidate)
                effective = candidate.fail_time
                last_reason = candidate.reason
                first = False
                continue
            served(replica, candidate)
            outcome = candidate
            winner = replica.rid
            if not first:
                stats.redispatched += 1
            # Hedge a queued dispatch: duplicate on the next healthy
            # replica, earlier finish wins, both replicas' time is
            # spent.
            if (hedging and candidate.start - effective
                    > redispatch.hedge_after_s):
                other = eligible(effective, exclude=replica)
                if other is not None:
                    twin = attempt(other, effective, service)
                    if twin.ok:
                        stats.hedges += 1
                        served(other, twin)
                        if twin.finish < candidate.finish:
                            stats.hedge_wins += 1
                            outcome = twin
                            winner = other.rid
                    else:
                        failed(other, twin)
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
        workload, trace, np.asarray(served_idx, dtype=np.int64),
        np.asarray(starts, dtype=np.float64),
        np.asarray(finishes, dtype=np.float64),
        assignment=np.asarray(assignment, dtype=np.int64),
        dropped_index=np.asarray(dropped_idx, dtype=np.int64),
        dropped_reasons=dropped_reasons,
        stats=stats, scenario=scenario,
        scale_events=tuple(scale_events),
        replica_spans=tuple(retired),
        window_s=window_s,
        n_replicas_initial=n_replicas,
        autoscaled=policy is not None)


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

    def simulator(self, estimator) -> "MultiReplicaSimulator":
        from repro.serving.replicas import MultiReplicaSimulator

        return MultiReplicaSimulator(
            estimator, self.n_replicas, dispatch=self.dispatch,
            chaos=self.chaos, autoscaler=self.autoscaler)


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
    return build_all(_FLEET_PRESETS)


def get_fleet_preset(name: str) -> FleetPreset:
    """Look up one preset; unknown names raise a one-line error."""
    return lookup(_FLEET_PRESETS, name, "fleet preset")
