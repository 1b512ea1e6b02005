"""Iteration-level continuous batching over tiered KV memory.

The FIFO :class:`~repro.serving.simulator.ServingSimulator` serves one
request at a time; real serving stacks (ORCA, vLLM) re-form the batch
at every decode iteration.  :class:`ContinuousBatchScheduler` brings
that here: requests join the running batch the moment they arrive and
capacity allows, leave it the step their last token is produced, and
each admission pins the request's KV cache into the GPU HBM / CPU DDR
/ CXL hierarchy through :class:`~repro.cxl.residency.KvResidency`.

Three LIA-specific couplings make this more than a queueing exercise:

* **Step times come from the paper's cost model.**  A
  :class:`StepProfile` tabulates one-decode-step latency over a
  (aggregate batch, context length) grid — the Helix
  ``MachineProfile`` bs→time idiom — computed by the Eq. (1)-backed
  estimator as one broadcast term table, then bilinearly interpolated.
* **Admission re-consults Eq. (1).**  Batch composition changes the
  optimal CPU/GPU split (Fig. 9's policy regions are batch-dependent),
  so every composition change re-solves
  :func:`~repro.core.optimizer.optimal_policy` for the aggregate batch.
* **KV placement feeds back into step time.**  When the re-solved
  policy keeps the attention sublayers on the CPU, KV bytes demoted to
  CXL stall AMX (Observation-2); the step stretches by
  ``cxl_step_penalty`` times the CXL-resident fraction.

Determinism contract (house style): every decision is a pure function
of (workload, arrivals, config) — no RNG, no wall clock — so reports
are bit-identical across runs.
The degenerate configuration :meth:`SchedulerConfig.fifo_degenerate`
(one request per batch, join only into an empty batch, unbounded KV)
collapses the iteration loop to the whole-request closed form and
reproduces the FIFO :class:`ServingSimulator` report bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Deque, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np
from numpy.typing import ArrayLike

from repro.core.optimizer import optimal_policy
from repro.cxl.residency import (KV_TIERS, KvResidency, KvTierCapacities,
                                 kv_capacities_from_system)
from repro.errors import CapacityError, ConfigurationError
from repro.models.sublayers import Stage, Sublayer
from repro.models.workload import InferenceRequest
from repro.serving.simulator import (DEFAULT_SPAN_CAP, ServingReport,
                                     arrivals_poisson, validate_arrivals)
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.bridge import note_dropped_spans
from repro.telemetry.runtime import Telemetry
from repro.telemetry.runtime import current as current_telemetry

if TYPE_CHECKING:
    from repro.core.estimator import LiaEstimator

__all__ = [
    "MIXED_SHAPES",
    "ContinuousBatchScheduler",
    "ContinuousServingReport",
    "SchedulerConfig",
    "StepProfile",
    "run_continuous_fleet",
]

#: The mixed-shape workload preset the serving benchmark's scheduler
#: phase (and its CI throughput gate) runs on: mostly singleton
#: requests of varying context plus one pre-batched shape.
MIXED_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (1, 128, 16),
    (1, 256, 32),
    (1, 512, 32),
    (8, 256, 32),
)


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the continuous-batching engine.

    ``join`` picks when waiting requests may enter the running batch:
    ``"step"`` (the ORCA default — at every iteration boundary) or
    ``"drain"`` (only into an empty batch, i.e. static batching).
    ``kv_capacities=None`` derives the per-tier budgets from the
    estimator's system (see
    :func:`~repro.cxl.residency.kv_capacities_from_system`);
    ``kv_unbounded=True`` disables KV admission control entirely.
    """

    max_batch_requests: int = 8
    join: str = "step"
    kv_capacities: Optional[KvTierCapacities] = None
    kv_unbounded: bool = False
    #: Step-time stretch per unit of CXL-resident KV fraction when the
    #: decode policy computes attention on the CPU (Observation-2).
    cxl_step_penalty: float = 0.15
    #: Re-solve Eq. (1) whenever the batch composition changes.
    resolve_policy: bool = True
    #: Context-axis resolution of the :class:`StepProfile` grid.
    context_grid_points: int = 8
    span_cap: int = DEFAULT_SPAN_CAP

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ConfigurationError(
                f"max_batch_requests must be >= 1, got "
                f"{self.max_batch_requests}")
        if self.join not in ("step", "drain"):
            raise ConfigurationError(
                f"join must be 'step' or 'drain', got {self.join!r}")
        if self.cxl_step_penalty < 0.0:
            raise ConfigurationError(
                f"cxl_step_penalty must be >= 0, got "
                f"{self.cxl_step_penalty}")
        if self.context_grid_points < 2:
            raise ConfigurationError(
                f"context_grid_points must be >= 2, got "
                f"{self.context_grid_points}")
        if self.span_cap < 0:
            raise ConfigurationError(
                f"span_cap must be >= 0, got {self.span_cap}")

    @property
    def is_fifo_degenerate(self) -> bool:
        """Whether this config collapses to the FIFO simulator.

        One request per batch + join only into an empty batch means
        every request runs alone from prefill to last token; with KV
        admission disabled, nothing else can perturb the timeline, so
        the sum of the solo iteration steps *is* the whole-request
        estimate and the FIFO closed form applies exactly.
        """
        unbounded = self.kv_unbounded or (
            self.kv_capacities is not None
            and all(math.isinf(c)
                    for c in self.kv_capacities.as_tuple()))
        return (self.max_batch_requests == 1 and self.join == "drain"
                and unbounded)

    @classmethod
    def fifo_degenerate(cls) -> "SchedulerConfig":
        """The config contractually bit-identical to the FIFO path."""
        return cls(max_batch_requests=1, join="drain",
                   kv_unbounded=True)


class StepProfile:
    """Decode-step / prefill latencies from the Eq. (1) cost model.

    The Helix ``MachineProfile`` idiom: per-iteration time as an
    interpolated function of batch size, except the table is not
    measured — grid point ``(B, c)`` is
    ``estimate(InferenceRequest(B, c, 1)).decode.time`` bit for bit,
    and the whole grid is one
    :meth:`~repro.core.estimator.LiaEstimator.decode_step_times` call,
    so the profile inherits the paper's batch-dependent CPU/GPU splits.
    """

    def __init__(self, estimator: "LiaEstimator",
                 batch_sizes: Sequence[int],
                 context_lens: Sequence[int]) -> None:
        batches = sorted(set(int(b) for b in batch_sizes))
        contexts = sorted(set(int(c) for c in context_lens))
        if not batches or batches[0] < 1:
            raise ConfigurationError(
                f"batch grid must be positive ints, got {batch_sizes}")
        if not contexts or contexts[0] < 1:
            raise ConfigurationError(
                f"context grid must be positive ints, got "
                f"{context_lens}")
        self.estimator = estimator
        self.batch_sizes = batches
        self.context_lens = contexts
        self._decode_grid = estimator.decode_step_times(batches, contexts)
        self._prefill_cache: Dict[Tuple[int, int], float] = {}

    @classmethod
    def for_workload(cls, estimator: "LiaEstimator",
                     requests: Sequence[InferenceRequest],
                     scheduler_config: "SchedulerConfig") -> "StepProfile":
        """Size the grid to what a run can actually reach.

        Batch axis: powers of two up to the largest possible aggregate
        batch (``max_batch_requests`` × largest member batch).  Context
        axis: ``context_grid_points`` geometric levels between the
        shortest prompt and the longest final context.
        """
        if not requests:
            raise ConfigurationError("profile needs at least one request")
        max_member = max(r.batch_size for r in requests)
        max_aggregate = scheduler_config.max_batch_requests * max_member
        batches: List[int] = [1]
        while batches[-1] < max_aggregate:
            batches.append(batches[-1] * 2)
        batches.append(max_aggregate)
        lo = min(r.input_len for r in requests)
        hi = max(r.max_context_len for r in requests)
        n = scheduler_config.context_grid_points
        ratio = (hi / lo) ** (1.0 / (n - 1)) if hi > lo else 1.0
        contexts = [int(round(lo * ratio ** i)) for i in range(n)]
        contexts.append(hi)
        return cls(estimator, batches, contexts)

    @staticmethod
    def _interp(grid: List[int], position: float
                ) -> Tuple[int, int, float]:
        """Bracketing indices + weight, clamped at the grid edges."""
        if position <= grid[0]:
            return 0, 0, 0.0
        if position >= grid[-1]:
            return len(grid) - 1, len(grid) - 1, 0.0
        hi = 1
        while grid[hi] < position:
            hi += 1
        lo = hi - 1
        weight = (position - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, weight

    def decode_step_time(self, batch_size: float,
                         context_len: float) -> float:
        """One decode iteration of an aggregate batch (bilinear)."""
        b_lo, b_hi, wb = self._interp(self.batch_sizes, batch_size)
        c_lo, c_hi, wc = self._interp(self.context_lens, context_len)
        grid = self._decode_grid
        low = grid[b_lo, c_lo] + wc * (grid[b_lo, c_hi]
                                       - grid[b_lo, c_lo])
        high = grid[b_hi, c_lo] + wc * (grid[b_hi, c_hi]
                                        - grid[b_hi, c_lo])
        return float(low + wb * (high - low))

    def prefill_time(self, request: InferenceRequest) -> float:
        """Exact (memoized) prefill latency of one member's prompt.

        Prompts come from a small set of distinct shapes, so exact
        estimation beats interpolation here — one estimator call per
        shape, not per admission.
        """
        key = (request.batch_size, request.input_len)
        cached = self._prefill_cache.get(key)
        if cached is None:
            probe = InferenceRequest(batch_size=request.batch_size,
                                     input_len=request.input_len,
                                     output_len=1)
            cached = self.estimator.estimate(probe).prefill.time
            self._prefill_cache[key] = cached
        return cached


@dataclass
class _ActiveRequest:
    """One member of the running batch."""

    index: int
    request: InferenceRequest
    arrival: float
    start: float
    steps_done: int = 0

    @property
    def context_len(self) -> int:
        """Context the *next* decode step attends over."""
        return self.request.input_len + self.steps_done

    @property
    def done(self) -> bool:
        return self.steps_done >= self.request.output_len


class ContinuousServingReport(ServingReport):
    """A :class:`ServingReport` plus iteration-level evidence.

    The timeline columns hold every request in arrival order, so every
    inherited statistic (percentiles, throughput, queue delay) is the
    FIFO report's own code — the degenerate config's bit-identity
    contract rides on that.
    """

    def __init__(self, workload: WorkloadVector, arrivals: np.ndarray,
                 starts: np.ndarray, finishes: np.ndarray, *,
                 iterations: int = 0, admissions: int = 0,
                 occupancy_mean: float = 0.0, occupancy_peak: int = 0,
                 policy_resolves: int = 0,
                 kv_peak_bytes: Optional[Dict[str, float]] = None,
                 kv_demotions: int = 0, kv_demoted_bytes: float = 0.0,
                 server_busy_s: float = 0.0) -> None:
        super().__init__(workload, arrivals, starts, finishes)
        self.iterations = iterations
        self.admissions = admissions
        #: Decode-busy-time-weighted mean of running-batch size.
        self.occupancy_mean = occupancy_mean
        self.occupancy_peak = occupancy_peak
        self.policy_resolves = policy_resolves
        self.kv_peak_bytes = dict(kv_peak_bytes or {})
        self.kv_demotions = kv_demotions
        self.kv_demoted_bytes = kv_demoted_bytes
        #: Seconds the server spent prefilling or decoding.  Under
        #: concurrency the FIFO formula (summed per-request service
        #: over makespan) exceeds 1 by the batching factor; this is
        #: the real busy integral.
        self.server_busy_s = server_busy_s

    @property
    def utilization(self) -> float:
        """Busy fraction of the makespan.

        The degenerate FIFO config sets ``server_busy_s`` to the FIFO
        report's ``busy_s`` (the same left fold of per-request service
        times), so this override divides the same floats the base
        property would.
        """
        return (self.server_busy_s / self.makespan
                if self.makespan else 0.0)

    def fingerprint(self) -> bytes:
        """Byte-exact digest of the served timelines (determinism
        checks hash this across repeat runs)."""
        return np.column_stack(
            (self.arrivals, self.starts, self.finishes)).tobytes()


class ContinuousBatchScheduler:
    """ORCA-style iteration-level scheduler over the LIA cost model.

    Drop-in peer of :class:`ServingSimulator`: same ``run`` /
    ``run_poisson`` surface, same report statistics, but requests
    share the server concurrently and admission is gated by per-tier
    KV capacity.
    """

    def __init__(self, estimator: "LiaEstimator",
                 scheduler_config: Optional[SchedulerConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.estimator = estimator
        self.config = scheduler_config or SchedulerConfig()
        self._telemetry = telemetry

    def _active_telemetry(self) -> Optional[Telemetry]:
        return (self._telemetry if self._telemetry is not None
                else current_telemetry())

    # ------------------------------------------------------------------
    def _resolve_capacities(self) -> KvTierCapacities:
        if self.config.kv_unbounded:
            return KvTierCapacities.unbounded()
        if self.config.kv_capacities is not None:
            return self.config.kv_capacities
        system = self.estimator.system
        weights_in_cxl: Optional[bool] = None
        if system.has_cxl:
            # §6 placement for the serving regime: consult the tiering
            # plan (weights to CXL, KV to DDR) the way the paper's
            # offloading policy prescribes.
            from repro.cxl.tiering import plan_tiering

            probe = InferenceRequest(batch_size=1, input_len=1,
                                     output_len=1)
            plan = plan_tiering(self.estimator.spec, probe, system,
                                self.estimator.config)
            weights_in_cxl = plan.weights_to_cxl
        return kv_capacities_from_system(self.estimator.spec, system,
                                         weights_in_cxl=weights_in_cxl)

    # ------------------------------------------------------------------
    def run(self, requests: Union[Sequence[InferenceRequest],
                                  WorkloadVector],
            arrivals: ArrayLike) -> ContinuousServingReport:
        """Serve ``requests`` arriving at ``arrivals`` (seconds)."""
        trace = validate_arrivals(arrivals)
        if len(requests) != trace.size:
            raise ConfigurationError(
                "requests and arrivals must have equal length")
        if not len(requests):
            raise ConfigurationError(
                "scheduler needs at least one request")
        workload = (requests if isinstance(requests, WorkloadVector)
                    else WorkloadVector.from_requests(list(requests)))
        if self.config.is_fifo_degenerate:
            return self._run_degenerate(workload, trace)
        return self._run_iterative(workload, trace)

    def run_poisson(self, requests: Union[Sequence[InferenceRequest],
                                          WorkloadVector],
                    rate_per_s: float, seed: int = 0
                    ) -> ContinuousServingReport:
        """Serve with seeded Poisson arrivals (the FIFO twin's API)."""
        arrivals = arrivals_poisson(len(requests), rate_per_s,
                                    seed=seed)
        return self.run(requests, arrivals)

    # ------------------------------------------------------------------
    def _run_degenerate(self, workload: WorkloadVector,
                        trace: np.ndarray) -> ContinuousServingReport:
        """The collapsed solo-batch path: the FIFO closed form.

        With one uninterrupted request per batch, the iteration loop's
        step sum telescopes to the whole-request estimate, so the
        timeline is the FIFO engine's, and the report is bit-identical
        to :meth:`ServingSimulator.run` by construction.
        """
        from repro.serving.piecewise import run_fifo
        from repro.serving.simulator import ServingSimulator

        fifo = run_fifo(ServingSimulator(self.estimator), workload,
                        trace, quiet=True)
        busy = fifo.busy_s
        n = fifo.n_served
        report = ContinuousServingReport(
            workload, trace, fifo.starts, fifo.finishes,
            iterations=n,
            admissions=n,
            occupancy_mean=1.0 if busy > 0.0 else 0.0,
            occupancy_peak=1,
            policy_resolves=0,
            kv_peak_bytes={tier: 0.0 for tier in KV_TIERS},
            server_busy_s=busy,
        )
        telemetry = self._active_telemetry()
        if telemetry is not None:
            self._emit_telemetry(telemetry, report, span_rows=[])
        return report

    # ------------------------------------------------------------------
    def _run_iterative(self, workload: WorkloadVector,
                       trace: np.ndarray) -> ContinuousServingReport:
        requests = workload.to_requests()
        arrivals = trace.tolist()
        cfg = self.config
        estimator = self.estimator
        spec = estimator.spec
        system = estimator.system
        lia_config = estimator.config
        telemetry = self._active_telemetry()

        capacities = self._resolve_capacities()
        residency = KvResidency(capacities)
        profile = StepProfile.for_workload(estimator, requests, cfg)

        pending: Deque[Tuple[int, InferenceRequest, float]] = deque(
            (i, request, arrival)
            for i, (request, arrival)
            in enumerate(zip(requests, arrivals)))
        running: List[_ActiveRequest] = []
        starts = np.empty(len(requests))
        finishes = np.empty(len(requests))

        clock = 0.0
        iterations = 0
        admissions = 0
        busy_time = 0.0
        prefill_busy = 0.0
        occupancy_time = 0.0
        occupancy_peak = 0
        policy_resolves = 0
        kv_peak = {tier: 0.0 for tier in KV_TIERS}
        members: frozenset = frozenset()
        kv_on_cpu = False
        #: (start, finish, n_running, aggregate_batch) per iteration,
        #: capped at cfg.span_cap; the total count feeds the drop note.
        span_rows: List[Tuple[float, float, int, int]] = []

        while pending or running:
            if not running and pending:
                head_arrival = pending[0][2]
                if clock < head_arrival:
                    clock = head_arrival
            can_join = cfg.join == "step" or not running
            admitted: List[_ActiveRequest] = []
            while (pending and can_join
                   and len(running) < cfg.max_batch_requests
                   and pending[0][2] <= clock):
                index, request, arrival = pending[0]
                kv_bytes = float(spec.kv_cache_bytes(
                    request.batch_size, request.max_context_len))
                if not residency.admit(index, kv_bytes):
                    if not running:
                        raise CapacityError(
                            f"request {index} "
                            f"(B={request.batch_size}, "
                            f"L={request.max_context_len}) needs "
                            f"{kv_bytes:.3e} KV bytes but the tiers "
                            f"hold {capacities.total_bytes:.3e} "
                            "combined",
                            requested=kv_bytes,
                            available=capacities.total_bytes,
                            device="kv-tiers")
                    # Head waits for the batch to drain; later
                    # requests wait behind it (FIFO admission).
                    break
                pending.popleft()
                entry = _ActiveRequest(index=index, request=request,
                                       arrival=arrival, start=clock)
                running.append(entry)
                admitted.append(entry)
                admissions += 1
            for tier in KV_TIERS:
                used = residency.used(tier)
                if used > kv_peak[tier]:
                    kv_peak[tier] = used

            now_members = frozenset(entry.index for entry in running)
            if now_members != members:
                members = now_members
                if cfg.resolve_policy and running:
                    aggregate = sum(entry.request.batch_size
                                    for entry in running)
                    context = max(entry.context_len
                                  for entry in running)
                    decision = optimal_policy(
                        spec, Stage.DECODE, aggregate, context,
                        system, lia_config)
                    policy_resolves += 1
                    kv_on_cpu = any(
                        not decision.policy.on_gpu(sub)
                        for sub in Sublayer if sub.uses_kv_cache)

            # New members prefill before the batch's next decode step
            # (ORCA interleaves prefill iterations; modeled serially).
            for entry in admitted:
                entry.start = clock
                prefill = profile.prefill_time(entry.request)
                clock += prefill
                prefill_busy += prefill

            if not running:
                continue

            iterations += 1
            aggregate = sum(entry.request.batch_size
                            for entry in running)
            context = max(entry.context_len for entry in running)
            step = profile.decode_step_time(aggregate, context)
            if kv_on_cpu and cfg.cxl_step_penalty > 0.0:
                total_kv = residency.total_used
                if total_kv > 0.0:
                    cxl_fraction = residency.used("cxl") / total_kv
                    # Observation-2: CPU attention reading CXL-resident
                    # KV runs at expander, not DDR, bandwidth.
                    step *= 1.0 + cfg.cxl_step_penalty * cxl_fraction
            step_start = clock
            clock += step
            busy_time += step
            occupancy_time += step * len(running)
            if len(running) > occupancy_peak:
                occupancy_peak = len(running)
            if len(span_rows) < cfg.span_cap:
                span_rows.append((step_start, clock, len(running),
                                  aggregate))

            for entry in running:
                entry.steps_done += 1
            finished = [entry for entry in running if entry.done]
            if finished:
                running = [entry for entry in running
                           if not entry.done]
                for entry in finished:
                    residency.release(entry.index)
                    starts[entry.index] = entry.start
                    finishes[entry.index] = clock

        report = ContinuousServingReport(
            workload, trace, starts, finishes,
            iterations=iterations,
            admissions=admissions,
            occupancy_mean=(occupancy_time / busy_time
                            if busy_time > 0.0 else 0.0),
            occupancy_peak=occupancy_peak,
            policy_resolves=policy_resolves,
            kv_peak_bytes=kv_peak,
            kv_demotions=residency.demotions,
            kv_demoted_bytes=residency.demoted_bytes,
            server_busy_s=busy_time + prefill_busy,
        )
        if telemetry is not None:
            self._emit_telemetry(telemetry, report, span_rows)
        return report

    # ------------------------------------------------------------------
    def _emit_telemetry(self, telemetry: Telemetry,
                        report: ContinuousServingReport,
                        span_rows: List[Tuple[float, float, int, int]]
                        ) -> None:
        from repro.telemetry.bridge import scheduler_report_to_metrics

        scheduler_report_to_metrics(
            report, telemetry.metrics,
            system=self.estimator.system.name,
            model=self.estimator.spec.name)
        for start, finish, n_running, aggregate in span_rows:
            telemetry.tracer.add_span(
                "decode-step", "scheduler", start, finish,
                n_running=n_running, aggregate_batch=aggregate)
        dropped = report.iterations - len(span_rows)
        if span_rows and dropped > 0:
            note_dropped_spans(telemetry, dropped, report.iterations,
                               component="scheduler",
                               cap=self.config.span_cap)


def run_continuous_fleet(estimator: "LiaEstimator",
                         requests: Union[
                             Sequence[InferenceRequest],
                             WorkloadVector],
                         arrivals: ArrayLike,
                         replicas: int,
                         scheduler_config: Optional[
                             SchedulerConfig] = None,
                         telemetry: Optional[Telemetry] = None
                         ) -> ContinuousServingReport:
    """Round-robin ``requests`` over ``replicas`` schedulers.

    The dispatch is keyed on the request *index* (``i % replicas``),
    so the partition — and therefore the merged report — is
    deterministic.  Replicas run one after another on the calling
    thread.
    """
    if replicas < 1:
        raise ConfigurationError(
            f"replicas must be >= 1, got {replicas}")
    trace = validate_arrivals(arrivals)
    if len(requests) != trace.size:
        raise ConfigurationError(
            "requests and arrivals must have equal length")
    if not len(requests):
        raise ConfigurationError("fleet needs at least one request")
    workload = (requests if isinstance(requests, WorkloadVector)
                else WorkloadVector.from_requests(list(requests)))
    if replicas == 1:
        scheduler = ContinuousBatchScheduler(
            estimator, scheduler_config, telemetry=telemetry)
        return scheduler.run(workload, trace)

    n = trace.size
    shards = [np.arange(replica, n, replicas, dtype=np.int64)
              for replica in range(min(replicas, n))]

    def serve(shard: np.ndarray) -> ContinuousServingReport:
        scheduler = ContinuousBatchScheduler(
            estimator, scheduler_config, telemetry=telemetry)
        return scheduler.run(workload.subset(shard), trace[shard])

    reports = [serve(shard) for shard in shards]
    codes = np.concatenate([r.workload.codes for r in reports])
    arrivals_all = np.concatenate([r.arrivals for r in reports])
    starts = np.concatenate([r.starts for r in reports])
    finishes = np.concatenate([r.finishes for r in reports])
    order = np.lexsort((finishes, starts, arrivals_all))
    merged = ContinuousServingReport(
        WorkloadVector(shapes=workload.shapes, codes=codes[order]),
        arrivals_all[order], starts[order], finishes[order],
        iterations=sum(r.iterations for r in reports),
        admissions=sum(r.admissions for r in reports),
        occupancy_mean=(
            sum(r.occupancy_mean * r.iterations for r in reports)
            / sum(r.iterations for r in reports)
            if sum(r.iterations for r in reports) else 0.0),
        occupancy_peak=max(r.occupancy_peak for r in reports),
        policy_resolves=sum(r.policy_resolves for r in reports),
        kv_peak_bytes={
            tier: max(r.kv_peak_bytes.get(tier, 0.0)
                      for r in reports)
            for tier in KV_TIERS},
        kv_demotions=sum(r.kv_demotions for r in reports),
        kv_demoted_bytes=math.fsum(r.kv_demoted_bytes
                                   for r in reports),
        # Mean per-replica busy time, so ``utilization`` reads as the
        # average replica busy fraction (the fleet convention).
        server_busy_s=(math.fsum(r.server_busy_s for r in reports)
                       / len(reports)),
    )
    return merged
