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
  estimator as one broadcast term table, then bilinearly interpolated
  in Python floats, one run of contexts per turn.
* **Admission re-consults Eq. (1).**  Batch composition changes the
  optimal CPU/GPU split (Fig. 9's policy regions are batch-dependent),
  so every composition change re-solves Eq. (1) for the aggregate
  batch.  A re-solve whose decision no step reads — no KV sits in CXL
  to stretch the steps — is counted as a resolve and a search, but not
  evaluated.  A re-solve a step reads takes the answer the
  :class:`StepProfile` grid solved at its lower bracketing point, and
  term tables of up to 1,024 points check every such guess when the
  run ends (a wrong guess reruns the loop once, solving every read on
  the spot).
* **KV placement feeds back into step time.**  When the re-solved
  policy keeps the attention sublayers on the CPU, KV bytes demoted to
  CXL stall AMX (Observation-2); the step stretches by
  :data:`CXL_STEP_PENALTY` times the CXL-resident fraction.

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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

import numpy as np
from numpy.typing import ArrayLike

from repro.core.optimizer import PolicyGrid, count_searches, search_grid
from repro.core.terms import layer_terms
from repro.cxl.residency import (KV_TIERS, KvResidency, KvTierCapacities,
                                 kv_capacities_from_system)
from repro.errors import CapacityError, ConfigurationError
from repro.models.sublayers import USES_KV_CACHE, Stage
from repro.models.workload import InferenceRequest
from repro.serving.degradation import PlanTable
from repro.serving.piecewise import serve_healthy
from repro.serving.replicas import _fleet_size
from repro.serving.simulator import (DEFAULT_SPAN_CAP, ServingReport,
                                     validate_stream)
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.bridge import Extra, emit_report, run_labels
from repro.telemetry.runtime import current as current_telemetry
from repro.telemetry.spans import Span

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

#: Step-time stretch per unit of CXL-resident KV fraction when the
#: decode policy computes attention on the CPU (Observation-2).
CXL_STEP_PENALTY = 0.15
#: Context-axis resolution of the :class:`StepProfile` grid.
CONTEXT_GRID_POINTS = 8

#: The mixed-shape workload preset the throughput-vs-FIFO test
#: (``tests/serving/test_scheduler.py``) runs on: mostly singleton
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
    :meth:`KvTierCapacities.unbounded` disables KV admission control
    entirely.
    """

    max_batch_requests: int = 8
    join: str = "step"
    kv_capacities: Optional[KvTierCapacities] = None

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ConfigurationError(
                f"max_batch_requests must be >= 1, got "
                f"{self.max_batch_requests}")
        if self.join not in ("step", "drain"):
            raise ConfigurationError(
                f"join must be 'step' or 'drain', got {self.join!r}")

    @property
    def is_fifo_degenerate(self) -> bool:
        """Whether this config collapses to the FIFO simulator.

        One request per batch + join only into an empty batch means
        every request runs alone from prefill to last token; with KV
        admission disabled, nothing else can perturb the timeline, so
        the sum of the solo iteration steps *is* the whole-request
        estimate and the FIFO closed form applies exactly.
        """
        unbounded = (self.kv_capacities is not None
                     and all(math.isinf(c)
                             for c in self.kv_capacities.as_tuple()))
        return (self.max_batch_requests == 1 and self.join == "drain"
                and unbounded)

    @classmethod
    def fifo_degenerate(cls) -> "SchedulerConfig":
        """The config contractually bit-identical to the FIFO path."""
        return cls(max_batch_requests=1, join="drain",
                   kv_capacities=KvTierCapacities.unbounded())


class StepProfile:
    """Decode-step / prefill latencies from the Eq. (1) cost model.

    The Helix ``MachineProfile`` idiom: per-iteration time as an
    interpolated function of batch size, except the table is not
    measured — grid point ``(B, c)`` is
    ``estimate(InferenceRequest(B, c, 1)).decode.time`` bit for bit,
    and the whole grid is one
    :meth:`~repro.core.estimator.LiaEstimator.decode_step_grid` call,
    so the profile inherits the paper's batch-dependent CPU/GPU splits.
    The same call's Eq. (1) winners say at every grid point whether
    attention runs on the CPU (:meth:`attention_on_cpu`).  Prefill
    times of the ``prompts`` shapes, ``(B, L_in)`` pairs, come from one
    :meth:`~repro.core.estimator.LiaEstimator.prefill_times` call (a
    prefill-only term table).
    """

    def __init__(self, estimator: "LiaEstimator",
                 batch_sizes: Sequence[int],
                 context_lens: Sequence[int],
                 prompts: Iterable[Tuple[int, int]] = ()) -> None:
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
        self._decode_grid, policies = estimator.decode_step_grid(
            batches, contexts)
        self._rows: List[List[float]] = self._decode_grid.tolist()
        self._attention: List[List[bool]] = _attention_placed_on_cpu(
            policies).tolist()
        self._prefill = self._prefill_times(prompts)

    @classmethod
    def for_workload(cls, estimator: "LiaEstimator",
                     requests: Sequence[InferenceRequest],
                     scheduler_config: "SchedulerConfig") -> "StepProfile":
        """Size the grid to what a run can actually reach.

        Batch axis: powers of two up to the largest possible aggregate
        batch (``max_batch_requests`` × largest member batch).  Context
        axis: :data:`CONTEXT_GRID_POINTS` geometric levels between the
        shortest prompt and the longest final context.  Prefill: every
        distinct prompt shape of ``requests``.
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
        n = CONTEXT_GRID_POINTS
        ratio = (hi / lo) ** (1.0 / (n - 1)) if hi > lo else 1.0
        contexts = [int(round(lo * ratio ** i)) for i in range(n)]
        contexts.append(hi)
        prompts = {(r.batch_size, r.input_len) for r in requests}
        return cls(estimator, batches, contexts, prompts)

    def _prefill_times(self, prompts: Iterable[Tuple[int, int]]
                       ) -> Dict[Tuple[int, int],
                                 Union[float, CapacityError]]:
        """Each prompt shape's prefill time, or the
        :class:`CapacityError` its estimate raises."""
        shapes = sorted(set(prompts))
        batches = [batch for batch, __ in shapes]
        lengths = [length for __, length in shapes]
        return dict(zip(shapes, self.estimator.prefill_times(batches,
                                                             lengths)))

    @staticmethod
    def _bracket(axis: List[int], position: float
                 ) -> Tuple[int, int, float]:
        """Bracketing indices + weight of ``position`` on ``axis``,
        clamped at the axis edges (a clamped position gets
        ``lo == hi`` and weight 0)."""
        hi = min(bisect_left(axis, position), len(axis) - 1)
        if axis[0] < position < axis[-1]:
            below = axis[hi - 1]
            return hi - 1, hi, (position - below) / (axis[hi] - below)
        return hi, hi, 0.0

    def decode_steps(self, batch_size: float,
                     context_len: float) -> Iterator[float]:
        """One decode iteration of an aggregate batch at each context
        ``context_len``, ``context_len + 1``, ... (bilinear, endless).

        The batch is bracketed once, the context only when it leaves
        its bracket; every step is Python float arithmetic, the same
        IEEE ops as the oracle's one-point scan
        (``tests/oracles/scheduler_loop.py``)."""
        b_lo, b_hi, wb = self._bracket(self.batch_sizes, batch_size)
        low_row, high_row = self._rows[b_lo], self._rows[b_hi]
        axis = self.context_lens
        context = context_len
        while True:
            c_lo, c_hi, __ = self._bracket(axis, context)
            inside = c_lo != c_hi
            # The last context this bracket holds for: clamped below
            # up to the first grid point, clamped above for good.
            last: float
            if inside:
                last = min(axis[c_hi], axis[-1] - 1)
            else:
                last = axis[0] if context <= axis[0] else math.inf
            below, width = axis[c_lo], axis[c_hi] - axis[c_lo]
            low_at, high_at = low_row[c_lo], high_row[c_lo]
            low_rise = low_row[c_hi] - low_at
            high_rise = high_row[c_hi] - high_at
            while context <= last:
                wc = (context - below) / width if inside else 0.0
                low = low_at + wc * low_rise
                high = high_at + wc * high_rise
                yield low + wb * (high - low)
                context += 1

    def decode_step_time(self, batch_size: float,
                         context_len: float) -> float:
        """One decode iteration of an aggregate batch (bilinear): the
        first step of :meth:`decode_steps`."""
        return next(self.decode_steps(batch_size, context_len))

    def attention_on_cpu(self, batch_size: float,
                         context_len: float) -> bool:
        """Whether the Eq. (1) decode winner computes attention on the
        CPU at the grid point that brackets ``(batch_size,
        context_len)`` from below (the axis start below it)."""
        row = max(bisect_right(self.batch_sizes, batch_size) - 1, 0)
        column = max(bisect_right(self.context_lens, context_len) - 1, 0)
        return self._attention[row][column]

    def prefill_time(self, request: InferenceRequest) -> float:
        """Exact prefill latency of one member's prompt.

        A shape outside the profile's ``prompts`` is estimated on the
        spot; a shape whose estimate does not fit raises its
        :class:`CapacityError`.
        """
        key = (request.batch_size, request.input_len)
        entry = self._prefill.get(key)
        if entry is None:
            entry = self._prefill_times([key])[key]
        if isinstance(entry, CapacityError):
            raise entry
        return entry


def _attention_placed_on_cpu(policies: PolicyGrid) -> np.ndarray:
    """Whether each point's Eq. (1) winner computes a KV-reading
    (attention) sublayer on the CPU."""
    return policies.winners_on_cpu[..., USES_KV_CACHE].any(axis=-1)


def _attention_on_cpu(estimator: "LiaEstimator", aggregate: ArrayLike,
                      context: ArrayLike) -> np.ndarray:
    """Whether the Eq. (1) decode winner computes attention on the CPU
    at each ``(aggregate batch, context)`` point: one term table and
    one :func:`~repro.core.optimizer.search_grid` call, which decide
    each point exactly as :func:`~repro.core.optimizer.optimal_policy`
    does.  Counts no search."""
    terms = layer_terms(estimator.spec, Stage.DECODE, aggregate, context,
                        estimator.system, estimator.config)
    return _attention_placed_on_cpu(search_grid(terms, estimator.config))


#: Guessed reads checked per term table: bounds the table's memory
#: (every point scores 64 policies over 6 sublayers).
_CHECK_BLOCK = 1024


class _ReadResolves:
    """The Eq. (1) answers one pass of the turn loop reads.

    A re-solve is *read* when KV sits in CXL, so the step stretch
    depends on whether attention runs on the CPU.  A guessing pass
    (one given a ``profile``) answers each read with the profile grid's
    answer at the read's lower bracketing point
    (:meth:`StepProfile.attention_on_cpu`), solved with the grid and so
    free, and records the read for :meth:`verified` to check,
    :data:`_CHECK_BLOCK` points per term table.  A pass without a
    profile solves every read on the spot.
    """

    def __init__(self, estimator: "LiaEstimator",
                 profile: Optional[StepProfile] = None) -> None:
        self.estimator = estimator
        self.profile = profile
        self.aggregates: List[int] = []
        self.contexts: List[int] = []
        self.guesses: List[bool] = []

    def answer(self, aggregate: int, context: int) -> bool:
        if self.profile is None:
            return bool(_attention_on_cpu(self.estimator, aggregate,
                                          context))
        guess = self.profile.attention_on_cpu(aggregate, context)
        self.aggregates.append(aggregate)
        self.contexts.append(context)
        self.guesses.append(guess)
        return guess

    def verified(self) -> bool:
        """Whether every guess was right.

        Each distinct read point is scored once, in first-read order,
        :data:`_CHECK_BLOCK` points per term table, and every recorded
        guess is compared with its point's answer."""
        slots: Dict[Tuple[int, int], int] = {}
        read_slot = np.array([slots.setdefault(point, len(slots))
                              for point in zip(self.aggregates,
                                               self.contexts)])
        points = np.array(list(slots)).reshape(-1, 2)
        guesses = np.array(self.guesses)
        for lo in range(0, len(points), _CHECK_BLOCK):
            block = points[lo:lo + _CHECK_BLOCK]
            truth = _attention_on_cpu(self.estimator, block[:, 0],
                                      block[:, 1])
            reads = (read_slot >= lo) & (read_slot < lo + len(block))
            if (truth[read_slot[reads] - lo] != guesses[reads]).any():
                return False
        return True


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
                 server_busy_s: float = 0.0,
                 decode_busy_s: float = 0.0) -> None:
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
        #: Seconds spent in decode steps: the weight behind
        #: ``occupancy_mean``, which merging replicas averages by.
        self.decode_busy_s = decode_busy_s

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


#: One decode step's span row: (start, finish, running requests,
#: aggregate batch).
_StepRow = Tuple[float, float, int, int]
#: One pass of the turn loop: its report, or the capacity error it hit;
#: its step rows; its Eq. (1) re-solve count.
_Pass = Tuple[Union[ContinuousServingReport, CapacityError],
              List[_StepRow], int]


class ContinuousBatchScheduler:
    """ORCA-style iteration-level scheduler over the LIA cost model.

    Drop-in peer of :class:`ServingSimulator`: same ``run`` surface,
    same report statistics, but requests share the server concurrently
    and admission is gated by per-tier KV capacity.
    """

    def __init__(self, estimator: "LiaEstimator",
                 scheduler_config: Optional[SchedulerConfig] = None
                 ) -> None:
        self.estimator = estimator
        self.config = scheduler_config or SchedulerConfig()

    # ------------------------------------------------------------------
    def run(self, requests: Union[Sequence[InferenceRequest],
                                  WorkloadVector],
            arrivals: ArrayLike) -> ContinuousServingReport:
        """Serve ``requests`` arriving at ``arrivals`` (seconds).

        Inside ``with repro.telemetry.activate(telemetry):`` the run
        emits its report once: the ``serving.*`` and ``scheduler.*``
        metrics and ``decode-step`` spans on the ``scheduler`` track.
        """
        workload, trace = validate_stream(requests, arrivals)
        return self._serve_fleet(workload, trace, None)

    def _serve_fleet(self, workload: WorkloadVector, trace: np.ndarray,
                     replicas: Optional[int]) -> ContinuousServingReport:
        """Serve a checked stream on this scheduler (``replicas``
        ``None``) or round-robin over ``replicas`` copies of it, and
        emit the report once.  Each replica records its first
        :data:`DEFAULT_SPAN_CAP` step rows; the call keeps the
        earliest-starting :data:`DEFAULT_SPAN_CAP` of them all, each on
        its replica's ``scheduler[j]`` track."""
        telemetry = current_telemetry()
        span_cap = DEFAULT_SPAN_CAP if telemetry is not None else 0
        k = replicas or 1
        passes = [self._run_iterative(workload.subset(rows), trace[rows],
                                      span_cap)
                  for rows in (slice(j, None, k)
                               for j in range(min(k, trace.size)))]
        report = (passes[0][0] if len(passes) == 1 else _merged(
            workload, [sub for sub, __ in passes]))
        if telemetry is None:
            return report
        tracks = (["scheduler"] if replicas is None
                  else [f"scheduler[{j}]" for j in range(len(passes))])
        # A stable sort: the lower replica first at equal starts.
        rows = sorted(((row, track) for track, (__, replica_rows)
                       in zip(tracks, passes) for row in replica_rows),
                      key=lambda item: item[0][0])[:span_cap]
        labels = run_labels(self.estimator)
        extras: List[Extra] = [
            (kind, f"scheduler.{name}", labels, value)
            for kind, name, value in (
                ("counter", "iterations", report.iterations),
                ("counter", "admissions", report.admissions),
                ("counter", "completions", report.n_served),
                ("counter", "policy_resolves", report.policy_resolves),
                ("counter", "kv_demotions", report.kv_demotions),
                ("gauge", "occupancy_mean", report.occupancy_mean),
                ("gauge", "occupancy_peak", float(report.occupancy_peak)))]
        extras += [("gauge", "scheduler.kv_peak_bytes",
                    {"tier": tier, **labels}, peak)
                   for tier, peak in report.kv_peak_bytes.items()]
        spans = [[Span("decode-step", track, start, finish,
                       {"n_running": n_running,
                        "aggregate_batch": aggregate})]
                 for (start, finish, n_running, aggregate), track in rows]
        emit_report(telemetry, report, labels, extras, spans,
                    report.iterations, "scheduler")
        return report

    # ------------------------------------------------------------------
    def _run_degenerate(self, workload: WorkloadVector,
                        trace: np.ndarray) -> ContinuousServingReport:
        """The collapsed solo-batch path: the FIFO closed form.

        With one uninterrupted request per batch, the iteration loop's
        step sum telescopes to the whole-request estimate, so the
        timeline is the FIFO engine's, and the report is bit-identical
        to :meth:`ServingSimulator.run` by construction.
        """
        fifo = serve_healthy(workload, trace,
                             PlanTable(self.estimator).service_times(
                                 workload))
        busy = fifo.busy_s
        n = fifo.n_served
        return ContinuousServingReport(
            workload, trace, fifo.starts, fifo.finishes,
            iterations=n,
            admissions=n,
            occupancy_mean=1.0 if busy > 0.0 else 0.0,
            occupancy_peak=1,
            policy_resolves=0,
            kv_peak_bytes={tier: 0.0 for tier in KV_TIERS},
            server_busy_s=busy,
            # The closed form does not split prefill from decode; every
            # busy second runs one request, so the whole busy time
            # weighs the occupancy of 1.
            decode_busy_s=busy,
        )

    # ------------------------------------------------------------------
    def _run_iterative(self, workload: WorkloadVector, trace: np.ndarray,
                       span_cap: int
                       ) -> Tuple[ContinuousServingReport, List[_StepRow]]:
        """Serve from one membership event to the next.

        Between events the running set, its aggregate batch, the KV
        ledger and the Eq. (1) decision are fixed and the max context
        grows by one per step, so each turn walks a whole run of decode
        steps in Python floats (:meth:`StepProfile.decode_steps`): the
        same floats, added in the same order, as one step per turn
        (``tests/oracles/scheduler_loop.py``).  A turn ends at the
        first finish or, when the head request could join, at the
        first step whose end reaches its arrival.

        The Eq. (1) re-solves that steps read are guessed from the
        profile grid, then checked in term tables when the run ends
        (:class:`_ReadResolves`).  A wrong guess reruns the loop once,
        every read solved on the spot; a :class:`CapacityError` is
        raised only from a pass whose guesses hold.  Every re-solve,
        read or not, is one ``policy.searches`` point, as in the
        oracle.  Returns the report and its first ``span_cap`` step
        rows; the FIFO-degenerate config takes :meth:`_run_degenerate`.
        """
        if self.config.is_fifo_degenerate:
            return self._run_degenerate(workload, trace), []
        requests = workload.to_requests()
        arrivals = trace.tolist()
        capacities = self.config.kv_capacities
        if capacities is None:
            capacities = kv_capacities_from_system(self.estimator.spec,
                                                   self.estimator.system)
        profile = StepProfile.for_workload(self.estimator, requests,
                                           self.config)

        def serve(reads: _ReadResolves) -> _Pass:
            return self._serve(workload, trace, requests, arrivals,
                               profile, capacities, reads, span_cap)

        reads = _ReadResolves(self.estimator, profile)
        outcome = serve(reads)
        if not reads.verified():
            outcome = serve(_ReadResolves(self.estimator))
        report, span_rows, resolves = outcome
        if resolves:
            count_searches(Stage.DECODE, self.estimator.config, resolves)
        if isinstance(report, CapacityError):
            raise report
        return report, span_rows

    def _serve(self, workload: WorkloadVector, trace: np.ndarray,
               requests: List[InferenceRequest], arrivals: List[float],
               profile: StepProfile, capacities: KvTierCapacities,
               reads: _ReadResolves, span_cap: int) -> _Pass:
        """One pass of the turn loop, its Eq. (1) reads answered by
        ``reads``: the report or the :class:`CapacityError` the pass
        hit, the first ``span_cap`` step spans, and the re-solve
        count."""
        cfg = self.config
        spec = self.estimator.spec
        residency = KvResidency(capacities)
        #: Live KV bytes per tier, updated in place by the ledger.
        used = residency.used_bytes
        shape_kv = [float(spec.kv_cache_bytes(shape.batch_size,
                                              shape.max_context_len))
                    for shape in workload.shapes]
        pending: Deque[Tuple[int, InferenceRequest, float, float]] = deque(
            zip(range(len(requests)), requests, arrivals,
                [shape_kv[code] for code in workload.codes.tolist()]))
        starts = [0.0] * len(requests)
        finishes = [0.0] * len(requests)
        step_joins = cfg.join == "step"
        max_batch = cfg.max_batch_requests
        #: The running set: each member's (finish step, index), and its
        #: (admission step - prompt length, finish step), whose least
        #: first entry puts the longest context at ``iterations`` minus
        #: it.  Finished members leave the second heap lazily.
        finishing: List[Tuple[int, int]] = []
        context_bases: List[Tuple[int, int]] = []
        n_running = 0
        aggregate = 0

        clock = 0.0
        iterations = 0
        admissions = 0
        busy_time = 0.0
        prefill_busy = 0.0
        occupancy_time = 0.0
        occupancy_peak = 0
        policy_resolves = 0
        penalty = CXL_STEP_PENALTY
        #: Peak live bytes per tier; tier usage only grows on admission.
        kv_peak = [0.0, 0.0, 0.0]
        #: Whether the last turn's steps finished a request: with an
        #: admission, the batch-composition changes that re-solve Eq. (1).
        released = False
        stretch = 1.0
        #: Whether steps stretch: KV sits in CXL and Eq. (1) computes
        #: attention on the CPU.
        stretched = False
        #: The first ``span_cap`` steps' rows, for the telemetry only.
        span_rows: List[_StepRow] = []

        try:
            while pending or n_running:
                if not n_running and clock < pending[0][2]:
                    clock = pending[0][2]
                can_join = step_joins or not n_running
                #: Arrival of a head that could join but has not
                #: arrived: it ends the next run of steps.
                head_arrival = math.inf
                admitted: List[int] = []
                while pending and can_join and n_running < max_batch:
                    index, request, arrival, kv_bytes = pending[0]
                    if arrival > clock:
                        head_arrival = arrival
                        break
                    if not residency.admit(index, kv_bytes):
                        if not n_running:
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
                        # requests wait behind it (FIFO admission).  A
                        # refused admit changes nothing, so only a
                        # release can let it in.
                        break
                    pending.popleft()
                    finish = iterations + request.output_len
                    heappush(finishing, (finish, index))
                    heappush(context_bases,
                             (iterations - request.input_len, finish))
                    n_running += 1
                    aggregate += request.batch_size
                    admitted.append(index)
                    admissions += 1
                if admitted:
                    kv_peak = [max(peak, now)
                               for peak, now in zip(kv_peak, used)]

                if not n_running:
                    # An empty batch admits its head or raises, so
                    # nothing is pending either.
                    break

                while context_bases[0][1] <= iterations:
                    heappop(context_bases)
                context = iterations - context_bases[0][0]
                if admitted or released:
                    # The KV ledger, and so the stretch, changes only
                    # with membership: it holds until the next change.
                    # Observation-2: CPU attention reading CXL-resident
                    # KV runs at expander, not DDR, bandwidth.
                    policy_resolves += 1
                    stretch = 1.0
                    total_kv = sum(used)
                    if penalty > 0.0 and total_kv > 0.0:
                        stretch = 1.0 + penalty * (used[2] / total_kv)
                    stretched = stretch != 1.0 and reads.answer(
                        aggregate, context)

                # New members prefill before the batch's next decode
                # step (ORCA interleaves prefill iterations; modeled
                # serially).
                for index in admitted:
                    starts[index] = clock
                    prefill = profile.prefill_time(requests[index])
                    clock += prefill
                    prefill_busy += prefill

                k = finishing[0][0] - iterations
                taken = 0
                spans_left = span_cap - len(span_rows)
                for step in profile.decode_steps(aggregate, context):
                    if stretched:
                        step *= stretch
                    start = clock
                    clock += step
                    busy_time += step
                    occupancy_time += step * n_running
                    if spans_left > 0:
                        span_rows.append((start, clock, n_running,
                                          aggregate))
                        spans_left -= 1
                    taken += 1
                    if taken == k or clock >= head_arrival:
                        break
                iterations += taken
                if n_running > occupancy_peak:
                    occupancy_peak = n_running

                released = finishing[0][0] == iterations
                while finishing and finishing[0][0] == iterations:
                    __, index = heappop(finishing)
                    residency.release(index)
                    finishes[index] = clock
                    n_running -= 1
                    aggregate -= requests[index].batch_size
        except CapacityError as error:
            return error, span_rows, policy_resolves

        report = ContinuousServingReport(
            workload, trace, np.array(starts), np.array(finishes),
            iterations=iterations,
            admissions=admissions,
            occupancy_mean=(occupancy_time / busy_time
                            if busy_time > 0.0 else 0.0),
            occupancy_peak=occupancy_peak,
            policy_resolves=policy_resolves,
            kv_peak_bytes=dict(zip(KV_TIERS, kv_peak)),
            kv_demotions=residency.demotions,
            kv_demoted_bytes=residency.demoted_bytes,
            server_busy_s=busy_time + prefill_busy,
            decode_busy_s=busy_time,
        )
        return report, span_rows, policy_resolves


def run_continuous_fleet(estimator: "LiaEstimator",
                         requests: Union[
                             Sequence[InferenceRequest],
                             WorkloadVector],
                         arrivals: ArrayLike,
                         replicas: int,
                         scheduler_config: Optional[
                             SchedulerConfig] = None
                         ) -> ContinuousServingReport:
    """Round-robin ``requests`` over ``replicas`` schedulers.

    The dispatch is keyed on the request *index* (``i % replicas``),
    so the partition — and therefore the merged report — is
    deterministic.  Replicas run one after another on the calling
    thread.  Inside ``with repro.telemetry.activate(telemetry):`` the
    call emits the fleet's report once, its step spans on per-replica
    ``scheduler[j]`` tracks.
    """
    replicas = _fleet_size("replicas", replicas)
    workload, trace = validate_stream(requests, arrivals)
    return ContinuousBatchScheduler(estimator, scheduler_config)._serve_fleet(
        workload, trace, replicas)


def _merged(workload: WorkloadVector,
            reports: List[ContinuousServingReport]
            ) -> ContinuousServingReport:
    """The fleet report of the replicas' ``reports`` over ``workload``:
    the served rows in arrival order, counts summed, peaks maxed."""
    decode_busy = math.fsum(r.decode_busy_s for r in reports)
    codes = np.concatenate([r.workload.codes for r in reports])
    arrivals_all = np.concatenate([r.arrivals for r in reports])
    starts = np.concatenate([r.starts for r in reports])
    finishes = np.concatenate([r.finishes for r in reports])
    order = np.lexsort((finishes, starts, arrivals_all))
    return ContinuousServingReport(
        WorkloadVector(shapes=workload.shapes, codes=codes[order]),
        arrivals_all[order], starts[order], finishes[order],
        iterations=sum(r.iterations for r in reports),
        admissions=sum(r.admissions for r in reports),
        # Each replica's mean weighs by its decode-busy time, as
        # within one run: replicas' steps differ in length.
        occupancy_mean=(
            math.fsum(r.occupancy_mean * r.decode_busy_s
                      for r in reports) / decode_busy
            if decode_busy > 0.0 else 0.0),
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
        decode_busy_s=decode_busy,
    )
