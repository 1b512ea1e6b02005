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

from repro.arrays import left_fold
from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest
from repro.serving.vectorized import WorkloadVector

if TYPE_CHECKING:
    from repro.faults.spec import FaultScenario
    from repro.serving.degradation import FaultStats
    from repro.telemetry.timeseries import MonitoringReport, SLOPolicy

#: Above this many served requests, ``latency_percentile`` answers
#: with the streaming-histogram estimate (~2% relative error) instead
#: of sorting the latency vector exactly.
DEFAULT_EXACT_PERCENTILE_LIMIT = 262_144

#: Span cap of one serving call: its first this many served requests
#: (continuous batching: its earliest decode steps) get spans; the
#: rest are counted in ``serving.spans_dropped``.
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


def validate_stream(requests: Union[Sequence[InferenceRequest],
                                    WorkloadVector],
                    arrivals: ArrayLike
                    ) -> Tuple[WorkloadVector, np.ndarray]:
    """Check a request stream at a serving entry point.

    Returns ``(workload, trace)``: the requests as a columnar
    :class:`~repro.serving.vectorized.WorkloadVector` and the arrivals
    checked by :func:`validate_arrivals`.  The stream must hold at
    least one request, with one arrival per request.
    """
    trace = validate_arrivals(arrivals)
    if len(requests) != trace.size:
        raise ConfigurationError(
            "requests and arrivals must have equal length")
    if not trace.size:
        raise ConfigurationError("serving needs at least one request")
    workload = (requests if isinstance(requests, WorkloadVector)
                else WorkloadVector.from_requests(list(requests)))
    return workload, trace


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
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass(frozen=True)
class DroppedRequest:
    """A request shed by admission control or unservable under faults."""

    request: InferenceRequest
    arrival: float
    reason: str


def _rank_index(size: int, fraction: float) -> int:
    """0-based position of the nearest-rank ``ceil(fraction * size)``-th
    smallest sample, the rank clamped to ``[1, size]``."""
    return min(size, max(1, math.ceil(fraction * size))) - 1


def nearest_rank(values: np.ndarray, fraction: float) -> float:
    """The ``ceil(fraction * n)``-th smallest of ``values`` (rank
    clamped to ``[1, n]``), found by one ``np.partition``.

    Reorders ``values`` in place; pass a scratch array.
    """
    at = _rank_index(values.size, fraction)
    values.partition(at)
    return float(values[at])


class ServingReport:
    """The statistics of one serving run, held as columns.

    ``workload``/``arrivals``/``starts``/``finishes`` cover the
    *served* requests in the order the server took them.  A run under
    a fault scenario also keeps the offered stream and its drop
    columns: ``served_index``/``dropped_index`` are positions in
    ``offered``, ``dropped_reasons`` says why each drop happened, and
    ``stats`` counts every fault reaction.  Runs without a scenario
    have ``dropped_index``, ``stats`` and ``scenario`` set to ``None``.
    Served plus dropped requests always account for the whole offered
    stream; construction checks it.  Every serving engine returns one
    of these: the continuous-batching, scale-out and chaos-fleet
    reports are subclasses.

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
        if arrivals.size + n_dropped != self.offered_arrivals.size:
            raise ConfigurationError(
                f"report accounting violated: {arrivals.size} served + "
                f"{n_dropped} dropped != {self.offered_arrivals.size} "
                "offered")
        if arrivals.size + n_dropped == 0:
            raise ConfigurationError("report needs at least one request")
        if served_index is not None:
            # The counts agree; each offered request must also be
            # served or dropped exactly once.
            n_offered = self.offered_arrivals.size
            covered = (served_index if dropped_index is None
                       else np.concatenate((served_index, dropped_index)))
            if (covered.min() < 0 or covered.max() >= n_offered
                    or not (np.bincount(covered, minlength=n_offered)
                            == 1).all()):
                raise ConfigurationError(
                    "report accounting violated: served and dropped "
                    f"indexes do not partition the {n_offered} offered "
                    "requests")
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
        times = self.service_times  # fresh array; fold in place
        return left_fold(0.0, times, out=times)

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
        delays = self.queue_delays  # fresh array; fold in place
        return left_fold(0.0, delays, out=delays) / self.n_served

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
        return self.latency_percentiles((fraction,))[0]

    def latency_percentiles(self, fractions: Sequence[float]
                            ) -> List[float]:
        """:meth:`latency_percentile` at every one of ``fractions``.

        All of them read one latency vector: the cached sort, or above
        ``exact_percentile_limit`` one fresh vector that partial
        selection orders at every requested rank.
        """
        for fraction in fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"fraction must be in (0, 1], got {fraction}")
        if not self.n_served:
            raise ConfigurationError("no requests were served")
        if not self.streaming_percentiles:
            if self._sorted_latencies is None:
                ordered = self.latencies  # fresh array; sort in place
                ordered.sort()
                self._sorted_latencies = ordered
            ordered = self._sorted_latencies
            return [float(ordered[_rank_index(ordered.size, fraction)])
                    for fraction in fractions]
        from repro.telemetry.metrics import StreamingHistogram

        latencies = self.latencies  # fresh array; select in place
        low = float(latencies.min())
        high = float(latencies.max())
        at = [_rank_index(latencies.size, fraction)
              for fraction in fractions]
        # Each rank is selected inside the suffix the previous one left
        # above it: numpy's multi-``kth`` partition measured about 4x
        # slower than these shrinking passes for p50/p95/p99 of 1M.
        done = -1
        for index in sorted(set(at)):
            latencies[done + 1:].partition(index - done - 1)
            done = index
        values: List[float] = []
        for fraction, index in zip(fractions, at):
            value = float(latencies[index])
            values.append(high if fraction == 1.0 else
                          StreamingHistogram.bucket_value(
                              StreamingHistogram.bucket_of(value)
                              if value > 0.0 else None, low, high))
        return values

    def summary(self) -> dict:
        """Every standard statistic in one call, p50/p95/p99 included
        (the same bits the individual properties return)."""
        result = {
            "utilization": self.utilization,
            "mean_queue_delay_s": self.mean_queue_delay,
            "makespan_s": self.makespan,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
        }
        fractions = (0.50, 0.95, 0.99)
        for fraction, value in zip(fractions,
                                   self.latency_percentiles(fractions)):
            result[f"p{round(fraction * 100)}"] = value
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
    def availability(self) -> float:
        """Share of the offered requests that were served."""
        return self.n_served / self.n_offered

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
    """Single-server FIFO simulation driven by an estimator: its
    engine and telemetry are :func:`~repro.serving.piecewise.run_fifo`.
    The continuous-batching engine is
    :class:`~repro.serving.scheduler.ContinuousBatchScheduler`.
    """

    def __init__(self, estimator: LiaEstimator) -> None:
        self.estimator = estimator

    def run(self, requests: Union[Sequence[InferenceRequest],
                                  WorkloadVector],
            arrivals: ArrayLike,
            scenario: Optional["FaultScenario"] = None) -> ServingReport:
        """Serve ``requests`` arriving at ``arrivals`` (seconds).

        ``requests`` is a request list or a columnar
        :class:`~repro.serving.vectorized.WorkloadVector`; both give
        the same report.  ``scenario`` injects faults (see
        :mod:`repro.serving.degradation`); an idle scenario — no
        fault windows, no admission bound — gives the same report as
        none at all.
        """
        from repro.serving.piecewise import run_fifo

        return run_fifo(self.estimator, requests, arrivals, scenario)
