"""Online serving simulation: a FIFO queue in front of one system.

Requests arrive at given timestamps (e.g. a Poisson process seeded for
reproducibility), execute one at a time at the latency the LIA
estimator predicts, and the report collects queueing delay, end-to-end
latency percentiles, and server utilization — the numbers a capacity
planner actually needs from the paper's latency results.

Every FIFO run, healthy or fault-injected, goes through one engine:
the piecewise-Lindley kernel of :mod:`repro.serving.piecewise` (a
healthy run is one infinite fault-free segment).  Its result is the
columnar :class:`ServingReport` defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np
from numpy.typing import ArrayLike

from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.runtime import Telemetry
from repro.telemetry.runtime import current as current_telemetry
from repro.workloads.traces import arrivals_poisson

if TYPE_CHECKING:
    from repro.faults.spec import FaultScenario
    from repro.serving.degradation import FaultStats
    from repro.serving.scheduler import SchedulerConfig
    from repro.telemetry.timeseries import MonitoringReport, SLOPolicy

#: Above this many served requests, ``latency_percentile`` answers
#: with the streaming-histogram estimate (~2% relative error) instead
#: of sorting the latency vector exactly.
DEFAULT_EXACT_PERCENTILE_LIMIT = 262_144

#: Per-request span emission cap: the first this many served requests
#: get ``server``/``queue`` spans; the rest are counted in
#: ``serving.spans_dropped``.
DEFAULT_SPAN_CAP = 1024


def validate_arrivals(arrivals: ArrayLike) -> np.ndarray:
    """Check an arrival trace in one vectorized pass.

    Returns the trace as a float64 numpy array.  Rejects NaN
    timestamps, any decreasing step, and timestamps that are negative
    (an idle server would book a phantom queue delay from time 0) or
    infinite (the report's statistics would turn NaN) — the previous
    ``list(arrivals) != sorted(arrivals)`` check was O(n log n) and
    silently order-dependent in the presence of NaN.
    """
    trace = np.asarray(arrivals, dtype=np.float64)
    if trace.ndim != 1:
        raise ConfigurationError(
            f"arrivals must be a flat sequence, got {trace.ndim} "
            "dimensions")
    if trace.size and bool(np.isnan(trace).any()):
        raise ConfigurationError("arrivals must not contain NaN")
    if trace.size > 1 and bool((trace[1:] < trace[:-1]).any()):
        raise ConfigurationError("arrivals must be non-decreasing")
    # Sorted and NaN-free: the ends bound every timestamp.
    if trace.size and trace[0] < 0.0:
        raise ConfigurationError(
            f"arrivals must be >= 0, got {float(trace[0])}")
    if trace.size and trace[-1] == np.inf:
        raise ConfigurationError("arrivals must be finite")
    return trace


@dataclass(frozen=True)
class ServedRequest:
    """Timeline of one request through the server."""

    request: InferenceRequest
    arrival: float
    start: float
    finish: float

    @property
    def queue_delay(self) -> float:
        return self.start - self.arrival

    @property
    def service_time(self) -> float:
        return self.finish - self.start

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass(frozen=True)
class DroppedRequest:
    """A request shed by admission control or unservable under faults."""

    request: InferenceRequest
    arrival: float
    reason: str


def nearest_rank(values: np.ndarray, fraction: float) -> float:
    """The ``ceil(fraction * n)``-th smallest of ``values`` (rank
    clamped to ``[1, n]``), found by one ``np.partition``.

    Reorders ``values`` in place; pass a scratch array.
    """
    rank = min(values.size, max(1, math.ceil(fraction * values.size)))
    values.partition(rank - 1)
    return float(values[rank - 1])


def _left_fold(values: np.ndarray) -> float:
    """``((v0 + v1) + v2) + ...`` in index order, in place.

    ``np.add.accumulate`` is a strictly sequential fold, unlike
    ``np.sum`` (pairwise) or Python 3.12's compensated ``sum``, so the
    total is reproducible against a plain scalar loop.
    """
    return float(np.add.accumulate(values, out=values)[-1])


class ServingReport:
    """The statistics of one serving run, held as columns.

    ``workload``/``arrivals``/``starts``/``finishes`` cover the
    *served* requests in the order the server took them.  A run under
    a fault scenario also keeps the offered stream and its drop
    columns: ``served_index``/``dropped_index`` are positions in
    ``offered``, ``dropped_reasons`` says why each drop happened, and
    ``stats`` counts every fault reaction.  Runs without a scenario
    have ``dropped_index``, ``stats`` and ``scenario`` set to ``None``.

    Scalar statistics fold floats left to right (the order a per-
    request loop would add them in).  Percentiles are exact (one lazy
    sort) up to ``exact_percentile_limit`` served requests and are the
    streaming-histogram estimate beyond it.  ``served`` and ``dropped``
    build per-request objects on first access, an O(n) cost meant for
    small runs and tests.
    """

    def __init__(self, workload: WorkloadVector, arrivals: np.ndarray,
                 starts: np.ndarray, finishes: np.ndarray, *,
                 served_index: Optional[np.ndarray] = None,
                 dropped_index: Optional[np.ndarray] = None,
                 dropped_reasons: Sequence[str] = (),
                 stats: Optional["FaultStats"] = None,
                 scenario: Optional["FaultScenario"] = None,
                 exact_percentile_limit: int =
                 DEFAULT_EXACT_PERCENTILE_LIMIT) -> None:
        """``workload``/``arrivals`` are the offered stream; the
        timeline covers the requests at ``served_index`` (``None``:
        all of them, in order)."""
        n_dropped = 0 if dropped_index is None else int(dropped_index.size)
        if n_dropped != len(dropped_reasons):
            raise ConfigurationError(
                "dropped_index and dropped_reasons must have equal "
                "length")
        self.offered = workload
        self.offered_arrivals = arrivals
        self._served_index = served_index
        if served_index is not None:
            workload = workload.subset(served_index)
            arrivals = arrivals[served_index]
        if not (arrivals.size == starts.size == finishes.size
                == workload.n_requests):
            raise ConfigurationError(
                "timeline arrays and workload must have equal length")
        if arrivals.size + n_dropped == 0:
            raise ConfigurationError("report needs at least one request")
        self.workload = workload
        self.arrivals = arrivals
        self.starts = starts
        self.finishes = finishes
        self.dropped_index = dropped_index
        self.dropped_reasons = tuple(dropped_reasons)
        self.stats = stats
        self.scenario = scenario
        self.exact_percentile_limit = exact_percentile_limit
        self._sorted_latencies: Optional[np.ndarray] = None
        self._served: Optional[List[ServedRequest]] = None
        self._makespan: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def n_served(self) -> int:
        return int(self.arrivals.size)

    @property
    def served_index(self) -> np.ndarray:
        if self._served_index is None:
            return np.arange(self.n_served, dtype=np.int64)
        return self._served_index

    @property
    def latencies(self) -> np.ndarray:
        return self.finishes - self.arrivals

    @property
    def queue_delays(self) -> np.ndarray:
        return self.starts - self.arrivals

    @property
    def service_times(self) -> np.ndarray:
        return self.finishes - self.starts

    @property
    def streaming_percentiles(self) -> bool:
        """Whether ``latency_percentile`` answers with the histogram
        estimate."""
        return self.n_served > self.exact_percentile_limit

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if self._makespan is None:
            self._makespan = (float(np.max(self.finishes))
                              if self.n_served else 0.0)
        return self._makespan

    @property
    def busy_s(self) -> float:
        """Summed service time, folded in serving order."""
        return _left_fold(self.service_times) if self.n_served else 0.0

    @property
    def utilization(self) -> float:
        makespan = self.makespan
        return self.busy_s / makespan if makespan else 0.0

    @property
    def throughput_tokens_per_s(self) -> float:
        # A zero makespan (all-zero service times) reports zero
        # throughput, not a crash.
        makespan = self.makespan
        return (self.workload.total_generated_tokens / makespan
                if makespan else 0.0)

    @property
    def mean_queue_delay(self) -> float:
        if not self.n_served:
            return 0.0
        return _left_fold(self.queue_delays) / self.n_served

    def latency_percentile(self, fraction: float) -> float:
        """Latency at the given percentile, e.g. 0.5 or 0.95.

        Standard nearest-rank: the ``ceil(fraction * n)``-th smallest
        sample.  Up to ``exact_percentile_limit`` served requests that
        sample is returned exactly (one cached sort).  Above it the
        answer is what a
        :class:`~repro.telemetry.metrics.StreamingHistogram` of every
        latency would estimate — the midpoint of the sample's bucket,
        clamped to the latency range; the maximum for ``fraction ==
        1`` — but it is computed from the sample itself, selected by
        one ``np.partition``, without building the histogram.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}")
        if not self.n_served:
            raise ConfigurationError("no requests were served")
        if self.streaming_percentiles:
            from repro.telemetry.metrics import StreamingHistogram

            latencies = self.latencies  # fresh array; select in place
            high = float(latencies.max())
            if fraction == 1.0:
                return high
            low = float(latencies.min())
            value = nearest_rank(latencies, fraction)
            return StreamingHistogram.bucket_value(
                StreamingHistogram.bucket_of(value) if value > 0.0
                else None, low, high)
        if self._sorted_latencies is None:
            ordered = self.latencies  # fresh array; sort in place
            ordered.sort()
            self._sorted_latencies = ordered
        ordered = self._sorted_latencies
        rank = min(ordered.size,
                   max(1, math.ceil(fraction * ordered.size)))
        return float(ordered[rank - 1])

    def summary(self, percentiles: Sequence[float] = (0.50, 0.95, 0.99)
                ) -> dict:
        """Every standard statistic in one call (the same bits the
        individual properties return)."""
        result = {
            "utilization": self.utilization,
            "mean_queue_delay_s": self.mean_queue_delay,
            "makespan_s": self.makespan,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
        }
        for fraction in percentiles:
            result[f"p{round(fraction * 100)}"] = (
                self.latency_percentile(fraction))
        return result

    # ------------------------------------------------------------------
    @property
    def served(self) -> List[ServedRequest]:
        if self._served is None:
            self._served = [
                ServedRequest(request=request, arrival=arrival,
                              start=start, finish=finish)
                for request, arrival, start, finish
                in self.iter_timeline()]
        return self._served

    def iter_timeline(self) -> Iterator[Tuple[InferenceRequest, float,
                                              float, float]]:
        """(shape, arrival, start, finish) rows without building
        ``ServedRequest`` objects."""
        shapes = self.workload.shapes
        for code, arrival, start, finish in zip(
                self.workload.codes.tolist(), self.arrivals.tolist(),
                self.starts.tolist(), self.finishes.tolist()):
            yield shapes[code], arrival, start, finish

    # ------------------------------------------------------------------
    @property
    def scenario_name(self) -> str:
        return self.scenario.name if self.scenario is not None else ""

    @property
    def n_dropped(self) -> int:
        return 0 if self.dropped_index is None else int(
            self.dropped_index.size)

    @property
    def n_offered(self) -> int:
        return self.n_served + self.n_dropped

    @property
    def drop_rate(self) -> float:
        return self.n_dropped / self.n_offered

    @property
    def dropped_arrivals(self) -> Optional[np.ndarray]:
        """Arrival timestamps of the dropped requests (``None`` for a
        run without a fault scenario)."""
        if self.dropped_index is None:
            return None
        return self.offered_arrivals[self.dropped_index]

    @property
    def dropped(self) -> List[DroppedRequest]:
        if self.dropped_index is None:
            return []
        shapes = self.offered.shapes
        return [DroppedRequest(request=shapes[code], arrival=arrival,
                               reason=reason)
                for code, arrival, reason in zip(
                    self.offered.codes[self.dropped_index].tolist(),
                    self.offered_arrivals[self.dropped_index].tolist(),
                    self.dropped_reasons)]

    def monitor(self, policy: "SLOPolicy",
                **kwargs: Any) -> "MonitoringReport":
        """Evaluate an SLO policy over this run; alerts overlapping
        one of the scenario's fault windows are attributed to it
        (see :func:`repro.telemetry.timeseries.monitor_report`)."""
        from repro.telemetry.timeseries import monitor_report

        return monitor_report(self, policy, **kwargs)


class ServingSimulator:
    """Single-server FIFO simulation driven by an estimator.

    With a :class:`Telemetry` attached (explicitly or via
    ``repro.telemetry.activate``), every run emits per-request
    ``server``/``queue`` spans in sim-seconds (up to
    :data:`DEFAULT_SPAN_CAP` requests) and feeds the ``serving.*``
    queue-delay / service-time / latency histograms.
    """

    def __init__(self, estimator: LiaEstimator,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.estimator = estimator
        self._telemetry = telemetry

    def _active_telemetry(self) -> Optional[Telemetry]:
        return (self._telemetry if self._telemetry is not None
                else current_telemetry())

    def run(self, requests: Union[Sequence[InferenceRequest],
                                  WorkloadVector],
            arrivals: ArrayLike,
            scenario: Optional["FaultScenario"] = None,
            scheduler: Union[None, str, "SchedulerConfig"] = None
            ) -> ServingReport:
        """Serve ``requests`` arriving at ``arrivals`` (seconds).

        ``requests`` is a request list or a columnar
        :class:`~repro.serving.vectorized.WorkloadVector`; both give
        the same report.  ``scenario`` injects faults (see
        :mod:`repro.serving.degradation`); an idle scenario — no
        fault windows, no admission bound — gives the same report as
        none at all.

        ``scheduler`` picks the serving policy: ``None`` / ``"fifo"``
        is the FIFO queue; ``"continuous"`` (or a
        :class:`~repro.serving.scheduler.SchedulerConfig`) dispatches
        to the iteration-level continuous-batching engine of
        :mod:`repro.serving.scheduler`, which returns a
        :class:`~repro.serving.scheduler.ContinuousServingReport`.
        That engine has no fault-injected variant, so combining it
        with a non-idle ``scenario`` is a :class:`ConfigurationError`.
        """
        if scheduler is not None and scheduler != "fifo":
            from repro.serving.scheduler import (ContinuousBatchScheduler,
                                                 SchedulerConfig)

            if scenario is not None and not scenario.idle:
                raise ConfigurationError(
                    "the continuous scheduler has no fault-injected "
                    "variant; run scenario= through the FIFO path")
            if isinstance(scheduler, SchedulerConfig):
                scheduler_config: Optional[SchedulerConfig] = scheduler
            elif scheduler == "continuous":
                scheduler_config = None
            else:
                raise ConfigurationError(
                    f"scheduler must be None, 'fifo', 'continuous', "
                    f"or a SchedulerConfig, got {scheduler!r}")
            engine = ContinuousBatchScheduler(
                self.estimator, scheduler_config,
                telemetry=self._telemetry)
            return engine.run(requests, arrivals)

        from repro.serving.piecewise import run_fifo

        workload = (requests if isinstance(requests, WorkloadVector)
                    else WorkloadVector.from_requests(requests))
        return run_fifo(self, workload, arrivals, scenario)

    def run_poisson(self, requests: Union[Sequence[InferenceRequest],
                                          WorkloadVector],
                    rate_per_s: float, seed: int = 0,
                    scenario: Optional["FaultScenario"] = None,
                    scheduler: Union[None, str,
                                     "SchedulerConfig"] = None
                    ) -> ServingReport:
        """Serve with Poisson arrivals at ``rate_per_s`` (seeded)."""
        arrivals = arrivals_poisson(len(requests), rate_per_s, seed=seed)
        return self.run(requests, arrivals, scenario=scenario,
                        scheduler=scheduler)
