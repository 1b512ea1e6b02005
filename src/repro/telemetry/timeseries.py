"""Windowed time-series metrics over serving timelines.

Whole-run aggregates (PR 1) answer "how did the run go"; capacity
and reliability questions need "when": when did the queue build,
which fault window blew the p95, which replica saturated.  This
module computes sim-time series directly from the columnar timeline
arrays (``arrivals``/``starts``/``finishes`` as produced by
:func:`repro.serving.vectorized.lindley_timeline`) in O(n) numpy —
no per-request spans, so it runs at 1M+ requests for a few percent
of the engine's own cost.

The layer has three parts:

* :func:`compute_timeseries` → :class:`ServingTimeseries` — per
  window: arrival/start/finish counts, queue depth, busy seconds
  (the exact integral of the in-service indicator), weighted sums
  (generated tokens, transfer bytes, ...), and windowed p50/p95/p99
  latency from a (window × geometric-bucket) histogram.
* :func:`evaluate_slo` — multi-window burn-rate SLO monitoring (SRE
  error budgets): an alert fires where both the long and the short
  rolling bad-fraction exceed ``burn_rate_threshold`` times the
  budget, and :func:`attribute_alerts` pins every alert on the
  overlapping :class:`~repro.faults.spec.FaultEvent` windows — or on
  organic load when no fault overlaps.
* :func:`fleet_timeseries` — the series of a
  :class:`~repro.serving.replicas.ScaleOutReport`: its replicas'
  series on one shared grid, merged.

**Exactness.**  Count channels and busy seconds are exact (integer
counts; the busy integral is closed-form per window).  Windowed
percentiles are bucketed estimates — the same ``GROWTH`` buckets as
:class:`~repro.telemetry.metrics.StreamingHistogram`, ~2.2% relative
width — optionally over a deterministic stride sample when windows
hold many samples.  Everything is a pure function of the timeline
arrays, so bit-identical timelines yield bit-identical series.

**Performance.**  Single-server FIFO timelines are non-decreasing in
arrivals, starts, *and* finishes (induction over the Lindley
recursion), so per-window counts come from ``np.searchsorted``
against the window edges and per-window sums from one
``np.add.reduceat`` per channel — no per-element window indexing.
Unsorted timelines (merged fleets, hand-built arrays) fall back to
one stable argsort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry.metrics import StreamingHistogram

#: Default dashboard width: enough resolution to localize a fault
#: window, few enough points that every export stays small.
DEFAULT_N_WINDOWS = 256

#: Windowed-percentile sampling targets about this many latency
#: samples per window; larger windows are strided down to it.  128
#: samples put the p99 rank at the top sample or two of a window —
#: inside the ~2.2% bucket quantization that already limits the
#: estimate — while keeping the whole metrics pass a small share of
#: the serving run it observes (perfbench's capacity-plan ``monitor``
#: call times it on a 1M-request fleet).
TARGET_SAMPLES_PER_WINDOW = 128

#: Hard cap on distinct latency buckets per window row, bounding the
#: 2-D histogram even for pathological dynamic ranges (a zero
#: latency would otherwise open ~3000 buckets down to 1e-30 s).
MAX_BUCKETS = 4096

_LOG_GROWTH = math.log(StreamingHistogram.GROWTH)
#: Latencies at or below this are clamped before the log-bucket
#: transform (the histogram's nonpositive guard, vectorized).
_LATENCY_FLOOR = 1e-30


# ----------------------------------------------------------------------
# The window grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowGrid:
    """``n_windows`` equal windows ``[t0 + w*window_s, t0 + (w+1)*window_s)``.

    The last window is closed on the right; events outside the grid
    are clamped into the first/last window so every request is
    accounted for (a grid built with :meth:`cover` never clamps).
    """

    t0: float
    window_s: float
    n_windows: int

    def __post_init__(self) -> None:
        if self.n_windows < 1:
            raise ConfigurationError(
                f"n_windows must be >= 1, got {self.n_windows}")
        if not (self.window_s > 0.0 and math.isfinite(self.window_s)):
            raise ConfigurationError(
                f"window_s must be positive and finite, "
                f"got {self.window_s}")

    @classmethod
    def cover(cls, horizon: float, n_windows: int = DEFAULT_N_WINDOWS,
              window_s: Optional[float] = None) -> "WindowGrid":
        """A grid spanning ``[0, horizon]``.

        With ``window_s`` given, the window count is derived
        (``ceil``); otherwise the span is split into ``n_windows``
        equal windows.  A degenerate span (all events at 0) gets
        one-second windows rather than a zero division.
        """
        if window_s is None and n_windows < 1:
            raise ConfigurationError(
                f"n_windows must be >= 1, got {n_windows}")
        if window_s is not None:
            if window_s <= 0.0:
                raise ConfigurationError(
                    f"window_s must be positive, got {window_s}")
            count = max(1, int(math.ceil(horizon / window_s)))
            return cls(t0=0.0, window_s=float(window_s), n_windows=count)
        if horizon <= 0.0:
            return cls(t0=0.0, window_s=1.0, n_windows=1)
        return cls(t0=0.0, window_s=horizon / n_windows,
                   n_windows=n_windows)

    @property
    def edges(self) -> np.ndarray:
        """The ``n_windows + 1`` window boundaries."""
        return (self.t0
                + np.arange(self.n_windows + 1) * self.window_s)


# ----------------------------------------------------------------------
# Array helpers
# ----------------------------------------------------------------------
def _is_sorted(values: np.ndarray) -> bool:
    return values.size < 2 or bool(np.all(values[1:] >= values[:-1]))


def _edge_counts(sorted_values: np.ndarray,
                 edges: np.ndarray) -> np.ndarray:
    """``c[k]`` = events assigned to windows before edge ``k``.

    ``side="left"`` makes windows half-open ``[e_w, e_{w+1})``; the
    outer edges are clamped so events outside the grid count in the
    first/last window.
    """
    counts = np.searchsorted(sorted_values, edges, side="left")
    counts[0] = 0
    counts[-1] = sorted_values.size
    return counts


def _segment_sums(values: np.ndarray,
                  bounds: np.ndarray) -> np.ndarray:
    """Per-window sums of ``values`` split at cumulative ``bounds``.

    ``bounds`` must be nondecreasing with ``bounds[-1] == values.size``
    (the :func:`_edge_counts` contract).  ``np.add.reduceat`` folds
    each segment left-to-right (the order the per-request loop would
    add them), but only the non-empty segments are handed to it:
    reduceat cannot represent a start index of ``values.size``, and
    clamping one to ``size - 1`` would drop the final element from the
    preceding window.  Because the bounds are monotone, each non-empty
    segment's upper bound equals the next non-empty segment's lower
    bound, so the non-empty lows alone are valid reduceat boundaries
    and the last one runs to the end of the array.
    """
    sums = np.zeros(bounds.size - 1)
    if values.size == 0:
        return sums
    nonempty = bounds[1:] > bounds[:-1]
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(values, bounds[:-1][nonempty])
    return sums


def _busy_seconds(grid: WindowGrid, sorted_starts: np.ndarray,
                  sorted_finishes: np.ndarray,
                  start_counts: np.ndarray,
                  finish_counts: np.ndarray) -> np.ndarray:
    """Exact per-window integral of the in-service count.

    With ``S(t)`` = starts at or before ``t`` and ``F(t)`` likewise
    for finishes, busy seconds in window ``w`` are
    ``∫ (S - F) dt = c_S(e_w)·Δ + Σ_{s∈w}(e_{w+1} - s)  -  (same for F)``
    — cumulative counts carry the requests already in flight at the
    window edge, the in-window sums the partial contributions.
    """
    edges = grid.edges
    width = grid.window_s
    upper = edges[1:]
    started = np.diff(start_counts)
    finished = np.diff(finish_counts)
    start_sums = _segment_sums(sorted_starts, start_counts)
    finish_sums = _segment_sums(sorted_finishes, finish_counts)
    busy = (start_counts[:-1] - finish_counts[:-1]) * width
    busy += (started - finished) * upper
    busy -= start_sums - finish_sums
    # Float cancellation can leave -1e-12-style dust on idle windows.
    np.maximum(busy, 0.0, out=busy)
    return busy


def _latency_buckets(latencies: np.ndarray
                     ) -> Tuple[np.ndarray, int]:
    """(bucket - offset, offset) per latency, StreamingHistogram
    bucketing (``floor(log_GROWTH(value))``) vectorized in float32.

    float32 keeps the transform in one cache-friendly pass; a 2.2%
    bucket absorbs the ~1e-7 relative quantization many times over.
    """
    quotient = latencies.astype(np.float32)
    np.maximum(quotient, np.float32(_LATENCY_FLOOR), out=quotient)
    np.log(quotient, out=quotient)
    quotient *= np.float32(1.0 / _LOG_GROWTH)
    np.floor(quotient, out=quotient)
    buckets = quotient.astype(np.int32)
    low = int(buckets.min())
    high = int(buckets.max())
    offset = max(low, high - (MAX_BUCKETS - 1))
    if offset > low:
        np.maximum(buckets, np.int32(offset), out=buckets)
    if offset:
        buckets -= np.int32(offset)
    return buckets, offset


class _LatencySource:
    """One timeline's latencies in finish order, computed lazily.

    The hot path (counts, busy, percentile sample) never needs the
    full n-element latency array; only :meth:`ServingTimeseries.
    bad_counts` does, so the subtraction is deferred until an SLO
    monitor asks — and cached, since monitors re-ask per policy.
    ``bounds`` are the cumulative finish counts per window edge.
    """

    __slots__ = ("_arrivals", "_finishes", "bounds", "_latencies")

    def __init__(self, arrivals: np.ndarray, finishes: np.ndarray,
                 bounds: np.ndarray) -> None:
        self._arrivals = arrivals
        self._finishes = finishes
        self.bounds = bounds
        self._latencies: Optional[np.ndarray] = None

    @property
    def latencies(self) -> np.ndarray:
        if self._latencies is None:
            self._latencies = self._finishes - self._arrivals
        return self._latencies

    def sample(self, stride: int) -> np.ndarray:
        """``latencies[::stride]`` without materializing the rest."""
        if self._latencies is not None:
            return self._latencies[::stride]
        if stride == 1:
            return self.latencies
        return self._finishes[::stride] - self._arrivals[::stride]


# ----------------------------------------------------------------------
# The time series
# ----------------------------------------------------------------------
@dataclass
class ServingTimeseries:
    """Per-window serving signals on one :class:`WindowGrid`.

    Count channels (``arrived``/``started``/``finished``/
    ``queue_depth``, optional ``dropped``) are exact int64; ``busy_s``
    is the exact in-service integral; ``weighted`` holds per-window
    sums of caller-supplied per-request weights (tokens, bytes).
    ``percentile`` answers from the (window × bucket) latency
    histogram; ``bad_counts`` is exact (it re-reduces the stored
    latency columns, not the buckets).

    Instances are additive: :meth:`merge` sums two series on the same
    grid — the fleet aggregation primitive.
    """

    grid: WindowGrid
    arrived: np.ndarray
    started: np.ndarray
    finished: np.ndarray
    queue_depth: np.ndarray
    busy_s: np.ndarray
    weighted: Dict[str, np.ndarray] = field(default_factory=dict)
    dropped: Optional[np.ndarray] = None
    #: Fleet control-plane channels (optional): active replicas at
    #: each window start and per-window availability — attached by
    #: :meth:`repro.serving.fleet.FleetReport.attach_control_channels`.
    replicas: Optional[np.ndarray] = None
    availability: Optional[np.ndarray] = None
    #: Servers behind the busy seconds: one count for the whole run,
    #: or per window the mean number provisioned in it (a fleet whose
    #: membership changes).
    n_servers: Union[int, np.ndarray] = 1
    percentile_stride: int = 1
    #: One :class:`_LatencySource` per merged timeline — the exact
    #: substrate for ``bad_counts``.
    _sources: List[_LatencySource] = field(default_factory=list,
                                           repr=False)
    #: (n_windows, n_buckets) int64 histogram of sampled latencies.
    _bucket_counts: Optional[np.ndarray] = field(default=None,
                                                 repr=False)
    _bucket_offset: int = 0
    _latency_min: float = math.inf
    _latency_max: float = -math.inf

    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        return self.grid.n_windows

    @property
    def utilization(self) -> np.ndarray:
        """Busy fraction per window (of ``n_servers`` servers)."""
        return self.busy_s / (self.grid.window_s * self.n_servers)

    @property
    def tokens(self) -> Optional[np.ndarray]:
        return self.weighted.get("tokens")

    # ------------------------------------------------------------------
    def percentile(self, fraction: float) -> np.ndarray:
        """Per-window nearest-rank latency percentile estimate.

        Bucketed like :meth:`StreamingHistogram.quantile` — the
        geometric mid of the selected bucket, clamped to the observed
        range — and NaN for windows that finished nothing.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}")
        counts = self._bucket_counts
        if counts is None:
            return np.full(self.n_windows, np.nan)
        n_buckets = counts.shape[1]
        # The cumulative histogram is fraction-independent; cache it
        # across the p50/p95/p99 calls every export makes.
        cached = self.__dict__.get("_percentile_state")
        if cached is None:
            flat = np.cumsum(counts.ravel())
            totals = counts.sum(axis=1)
            row_end = flat[n_buckets - 1::n_buckets]
            cached = (flat, totals, row_end)
            self.__dict__["_percentile_state"] = cached
        flat, totals, row_end = cached
        rank = np.ceil(fraction * totals).astype(np.int64)
        np.clip(rank, 1, None, out=rank)
        np.minimum(rank, totals, out=rank)
        target = row_end - totals + rank
        position = np.searchsorted(flat, target, side="left")
        bucket = (position - np.arange(self.n_windows) * n_buckets
                  + self._bucket_offset)
        values = np.power(StreamingHistogram.GROWTH,
                          bucket + 0.5)
        np.clip(values, self._latency_min, self._latency_max,
                out=values)
        values[totals == 0] = np.nan
        return values

    def bad_counts(self, latency_threshold_s: float) -> np.ndarray:
        """Exact per-window count of finishes over the threshold."""
        total = np.zeros(self.n_windows, dtype=np.int64)
        for source in self._sources:
            bounds = source.bounds
            over = (source.latencies
                    > latency_threshold_s).astype(np.int64)
            total += np.add.reduceat(
                over, np.minimum(bounds[:-1],
                                 max(over.size - 1, 0))
            ) * (bounds[1:] > bounds[:-1])
        return total

    # ------------------------------------------------------------------
    def merge(self, other: "ServingTimeseries") -> "ServingTimeseries":
        """The channel-wise sum of two series on the same grid.

        Count channels, busy seconds, weighted sums, and the latency
        bucket histograms all add; the result answers fleet-level
        questions exactly as if every replica reported into one
        collector.  The fleet control-plane channels (``replicas``,
        ``availability``) describe a whole fleet and are not merged.
        """
        if (self.grid != other.grid):
            raise ConfigurationError(
                "cannot merge series on different window grids: "
                f"{self.grid} vs {other.grid}")
        if set(self.weighted) != set(other.weighted):
            raise ConfigurationError(
                "cannot merge series with different weighted "
                f"channels: {sorted(self.weighted)} vs "
                f"{sorted(other.weighted)}")
        weighted = {name: self.weighted[name] + other.weighted[name]
                    for name in self.weighted}
        if self.dropped is None and other.dropped is None:
            dropped = None
        else:
            dropped = np.zeros(self.n_windows, dtype=np.int64)
            for part in (self.dropped, other.dropped):
                if part is not None:
                    dropped = dropped + part
        counts, offset = _merge_bucket_counts(
            self._bucket_counts, self._bucket_offset,
            other._bucket_counts, other._bucket_offset)
        return ServingTimeseries(
            grid=self.grid,
            arrived=self.arrived + other.arrived,
            started=self.started + other.started,
            finished=self.finished + other.finished,
            queue_depth=self.queue_depth + other.queue_depth,
            busy_s=self.busy_s + other.busy_s,
            weighted=weighted,
            dropped=dropped,
            n_servers=self.n_servers + other.n_servers,
            percentile_stride=max(self.percentile_stride,
                                  other.percentile_stride),
            _sources=self._sources + other._sources,
            _bucket_counts=counts,
            _bucket_offset=offset,
            _latency_min=min(self._latency_min, other._latency_min),
            _latency_max=max(self._latency_max, other._latency_max),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready channel dump: p50, p95 and p99 per window (NaN
        percentiles become None)."""
        document: Dict[str, object] = {
            "t0": self.grid.t0,
            "window_s": self.grid.window_s,
            "n_windows": self.grid.n_windows,
            "n_servers": np.asarray(self.n_servers).tolist(),
            "percentile_stride": self.percentile_stride,
            "arrived": self.arrived.tolist(),
            "started": self.started.tolist(),
            "finished": self.finished.tolist(),
            "queue_depth": self.queue_depth.tolist(),
            "busy_s": self.busy_s.tolist(),
            "utilization": self.utilization.tolist(),
        }
        for name, values in sorted(self.weighted.items()):
            document[name] = values.tolist()
        if self.dropped is not None:
            document["dropped"] = self.dropped.tolist()
        if self.replicas is not None:
            document["replicas"] = self.replicas.tolist()
        if self.availability is not None:
            document["availability"] = self.availability.tolist()
        for fraction in (0.50, 0.95, 0.99):
            values = self.percentile(fraction)
            document[f"p{round(fraction * 100)}_s"] = [
                None if math.isnan(value) else value
                for value in values.tolist()]
        return document


def _merge_bucket_counts(left: Optional[np.ndarray], left_offset: int,
                         right: Optional[np.ndarray],
                         right_offset: int
                         ) -> Tuple[Optional[np.ndarray], int]:
    if left is None:
        return right, right_offset
    if right is None:
        return left, left_offset
    offset = min(left_offset, right_offset)
    end = max(left_offset + left.shape[1],
              right_offset + right.shape[1])
    merged = np.zeros((left.shape[0], end - offset), dtype=np.int64)
    merged[:, left_offset - offset:
           left_offset - offset + left.shape[1]] += left
    merged[:, right_offset - offset:
           right_offset - offset + right.shape[1]] += right
    return merged, offset


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def compute_timeseries(arrivals: np.ndarray, starts: np.ndarray,
                       finishes: np.ndarray, *,
                       grid: Optional[WindowGrid] = None,
                       n_windows: int = DEFAULT_N_WINDOWS,
                       weights: Optional[Dict[str, np.ndarray]] = None,
                       dropped_arrivals: Optional[np.ndarray] = None,
                       assume_sorted: Optional[bool] = None
                       ) -> ServingTimeseries:
    """Windowed series from one timeline (see module docstring).

    ``weights`` maps channel names to per-request values (aligned
    with the timeline arrays); each channel is summed into the
    request's *finish* window.  ``assume_sorted=True`` skips the
    monotonicity probe — legitimate for single-server FIFO timelines,
    where arrivals, starts, and finishes are provably non-decreasing;
    ``None`` probes (O(n), branch-free) and falls back to one stable
    argsort when the timeline is interleaved (merged fleets).
    The windowed-percentile histogram ingests a deterministic stride
    subsample of the latencies, about
    :data:`TARGET_SAMPLES_PER_WINDOW` per window (every latency when
    there are fewer; the stride is kept as ``percentile_stride``).
    """
    a = np.asarray(arrivals, dtype=np.float64)
    s = np.asarray(starts, dtype=np.float64)
    f = np.asarray(finishes, dtype=np.float64)
    if not (a.ndim == s.ndim == f.ndim == 1
            and a.size == s.size == f.size):
        raise ConfigurationError(
            "arrivals, starts, and finishes must be equal-length "
            "flat arrays")
    n = a.size
    if n == 0:
        raise ConfigurationError(
            "timeseries needs at least one request")
    weights = dict(weights or {})
    for name, values in weights.items():
        values = np.asarray(values, dtype=np.float64)
        if values.shape != a.shape:
            raise ConfigurationError(
                f"weight channel {name!r} must align with the "
                "timeline arrays")
        weights[name] = values
    if grid is None:
        grid = WindowGrid.cover(float(np.max(f)), n_windows=n_windows)
    if assume_sorted is None:
        assume_sorted = (_is_sorted(a) and _is_sorted(s)
                         and _is_sorted(f))
    if assume_sorted:
        a_sorted, s_sorted, f_sorted = a, s, f
        a_by_finish = a
    else:
        order = np.argsort(f, kind="stable")
        a_sorted = np.sort(a)
        s_sorted = np.sort(s)
        f_sorted = f[order]
        a_by_finish = a[order]
        weights = {name: values[order]
                   for name, values in weights.items()}

    edges = grid.edges
    arrival_counts = _edge_counts(a_sorted, edges)
    start_counts = _edge_counts(s_sorted, edges)
    finish_counts = _edge_counts(f_sorted, edges)
    busy = _busy_seconds(grid, s_sorted, f_sorted, start_counts,
                         finish_counts)
    weighted = {name: _segment_sums(values, finish_counts)
                for name, values in weights.items()}

    dropped = None
    if dropped_arrivals is not None:
        d = np.sort(np.asarray(dropped_arrivals, dtype=np.float64))
        dropped = np.diff(_edge_counts(d, edges))

    # Windowed-percentile histogram over a deterministic stride
    # sample.  The sampled cumulative counts per edge follow from the
    # exact ones in closed form: of the elements before ``c``,
    # ``ceil(c / stride)`` have indices divisible by ``stride``.
    stride = max(1, n // (grid.n_windows * TARGET_SAMPLES_PER_WINDOW))
    source = _LatencySource(a_by_finish, f_sorted, finish_counts)
    sample = source.sample(stride)
    sample_counts = -(-finish_counts // stride)
    buckets, offset = _latency_buckets(sample)
    n_buckets = int(buckets.max()) + 1
    window_ids = np.repeat(
        np.arange(grid.n_windows, dtype=np.int32),
        np.diff(sample_counts).astype(np.int64))
    np.multiply(window_ids, np.int32(n_buckets), out=window_ids)
    window_ids += buckets
    histogram = np.bincount(
        window_ids, minlength=grid.n_windows * n_buckets
    ).reshape(grid.n_windows, n_buckets)

    return ServingTimeseries(
        grid=grid,
        arrived=np.diff(arrival_counts),
        started=np.diff(start_counts),
        finished=np.diff(finish_counts),
        queue_depth=arrival_counts[1:] - finish_counts[1:],
        busy_s=busy,
        weighted=weighted,
        dropped=dropped,
        percentile_stride=stride,
        _sources=[source],
        _bucket_counts=histogram,
        _bucket_offset=offset,
        _latency_min=float(np.min(sample)),
        _latency_max=float(np.max(sample)),
    )


# ----------------------------------------------------------------------
# Report adapters
# ----------------------------------------------------------------------
def timeseries_from_report(report, *,
                           n_windows: int = DEFAULT_N_WINDOWS
                           ) -> ServingTimeseries:
    """A :class:`ServingTimeseries` from any serving report.

    Accepts a :class:`~repro.serving.simulator.ServingReport`
    (fault-injected runs' dropped requests populate the ``dropped``
    channel), a :class:`~repro.serving.replicas.ScaleOutReport`
    (delegated to :func:`fleet_timeseries`) and a
    :class:`~repro.serving.fleet.FleetReport` (its control-plane
    channels attached).
    """
    from repro.serving.fleet import FleetReport
    from repro.serving.replicas import ScaleOutReport

    if isinstance(report, ScaleOutReport):
        return fleet_timeseries(report, n_windows=n_windows)
    # Fault-injected reports expose the dropped requests' arrival
    # timestamps; they populate the ``dropped`` channel.
    series = compute_timeseries(
        report.arrivals, report.starts, report.finishes,
        n_windows=n_windows,
        weights={"tokens": report.workload.tokens_per_request()},
        dropped_arrivals=report.dropped_arrivals)
    if isinstance(report, FleetReport):
        report.attach_control_channels(series)
    return series


def fleet_timeseries(report, *,
                     n_windows: int = DEFAULT_N_WINDOWS
                     ) -> ServingTimeseries:
    """The series of a :class:`~repro.serving.replicas.ScaleOutReport`.

    Every replica timeline is single-server FIFO — sorted by
    construction — so each per-replica series takes the fast path;
    the fleet series is their :meth:`ServingTimeseries.merge` fold
    (count channels exactly equal a direct computation over the
    interleaved fleet timeline).
    """
    grid = WindowGrid.cover(report.makespan, n_windows=n_windows)
    merged_series: Optional[ServingTimeseries] = None
    for sub in report.per_replica:
        if sub.n_served == 0:
            continue  # a fully-shed replica has no timeline to window
        series = compute_timeseries(
            sub.arrivals, sub.starts, sub.finishes, grid=grid,
            weights={"tokens": sub.workload.tokens_per_request()},
            assume_sorted=True)
        merged_series = (series if merged_series is None
                         else merged_series.merge(series))
    if merged_series is None:
        raise ConfigurationError("fleet report served no requests")
    # The fleet's drops, fully-shed replicas' included, in one pass.
    shed = report.dropped_arrivals
    if shed is not None:
        merged_series.dropped = np.diff(_edge_counts(np.sort(shed),
                                                     grid.edges))
    return merged_series


# ----------------------------------------------------------------------
# SLO burn-rate monitoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOPolicy:
    """A latency SLO with an error budget and burn-rate alerting.

    A request is *bad* when its latency exceeds
    ``latency_threshold_s``; the SLO tolerates ``error_budget`` of
    them.  The burn rate over a lookback is
    ``bad_fraction / error_budget`` (1.0 = exactly spending the
    budget).  Following the SRE multi-window pattern, an alert fires
    in windows where **both** the ``long_window_s`` and the
    ``short_window_s`` rolling burn rates reach
    ``burn_rate_threshold`` — the long window filters noise, the
    short window makes alerts stop promptly once the cause clears.
    """

    latency_threshold_s: float
    error_budget: float = 0.01
    long_window_s: float = 0.0
    short_window_s: float = 0.0
    burn_rate_threshold: float = 2.0

    def __post_init__(self) -> None:
        for name in ("latency_threshold_s", "burn_rate_threshold"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.error_budget <= 1.0:
            raise ConfigurationError(
                f"error_budget must be in (0, 1], "
                f"got {self.error_budget}")
        for name in ("long_window_s", "short_window_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite (0 picks the default), "
                    f"got {value}")

    def windows(self, grid: WindowGrid) -> Tuple[int, int]:
        """(long, short) lookbacks in whole windows (>= 1 each)."""
        def to_windows(seconds: float, default: int) -> int:
            if seconds <= 0.0:
                return default
            return max(1, int(math.ceil(seconds / grid.window_s)))

        long_w = to_windows(self.long_window_s,
                            max(1, grid.n_windows // 8))
        short_w = to_windows(self.short_window_s,
                             max(1, long_w // 12))
        return long_w, min(short_w, long_w)

    def lookback_s(self, grid: WindowGrid) -> float:
        """How far before an alert a fault window still claims it: the
        long lookback (queues drain slowly, so a fault's latency echo
        outlives the fault)."""
        long_w, __ = self.windows(grid)
        return long_w * grid.window_s


@dataclass(frozen=True)
class AlertAttribution:
    """Why one alert fired: a fault window, or organic load."""

    cause: str
    overlap_s: float = 0.0
    event_start_s: float = 0.0
    event_end_s: float = 0.0
    magnitude: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"cause": self.cause, "overlap_s": self.overlap_s,
                "event_start_s": self.event_start_s,
                "event_end_s": self.event_end_s,
                "magnitude": self.magnitude}


#: The attribution cause used when no fault window overlaps.
ORGANIC_LOAD = "organic-load"


@dataclass
class SLOAlert:
    """One maximal run of windows where both burn rates fired."""

    start_s: float
    end_s: float
    first_window: int
    last_window: int
    peak_burn_long: float
    peak_burn_short: float
    n_bad: int
    n_requests: int
    attributions: Tuple[AlertAttribution, ...] = ()

    @property
    def cause(self) -> str:
        """The dominant attribution (largest fault overlap)."""
        return (self.attributions[0].cause if self.attributions
                else ORGANIC_LOAD)

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_s": self.start_s, "end_s": self.end_s,
            "first_window": self.first_window,
            "last_window": self.last_window,
            "peak_burn_long": self.peak_burn_long,
            "peak_burn_short": self.peak_burn_short,
            "n_bad": self.n_bad, "n_requests": self.n_requests,
            "cause": self.cause,
            "attributions": [a.to_dict() for a in self.attributions],
        }


def _rolling_sum(values: np.ndarray, span: int) -> np.ndarray:
    """Trailing ``span``-window sums (shorter at the run's start)."""
    cumulative = np.cumsum(values)
    rolled = cumulative.copy()
    if span < values.size:
        rolled[span:] -= cumulative[:-span]
    return rolled


@dataclass
class MonitoringReport:
    """One SLO evaluation: burn-rate series plus attributed alerts."""

    timeseries: ServingTimeseries
    policy: SLOPolicy
    bad: np.ndarray
    burn_long: np.ndarray
    burn_short: np.ndarray
    alerts: List[SLOAlert]
    scenario_name: str = ""

    @property
    def total_bad(self) -> int:
        return int(self.bad.sum())

    @property
    def total_requests(self) -> int:
        return int(self.timeseries.finished.sum())

    @property
    def bad_fraction(self) -> float:
        total = self.total_requests
        return self.total_bad / total if total else 0.0

    @property
    def budget_spent(self) -> float:
        """Fraction of the whole-run error budget consumed."""
        return self.bad_fraction / self.policy.error_budget

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario_name,
            "latency_threshold_s": self.policy.latency_threshold_s,
            "error_budget": self.policy.error_budget,
            "burn_rate_threshold": self.policy.burn_rate_threshold,
            "total_bad": self.total_bad,
            "total_requests": self.total_requests,
            "bad_fraction": self.bad_fraction,
            "budget_spent": self.budget_spent,
            "bad": self.bad.tolist(),
            "burn_long": self.burn_long.tolist(),
            "burn_short": self.burn_short.tolist(),
            "alerts": [alert.to_dict() for alert in self.alerts],
        }


def evaluate_slo(timeseries: ServingTimeseries, policy: SLOPolicy,
                 events: Sequence = (),
                 scenario_name: str = "") -> MonitoringReport:
    """Run one SLO policy over a series and attribute the alerts.

    ``events`` are :class:`~repro.faults.spec.FaultEvent` windows
    (pass ``scenario.events``); alerts overlapping none of them are
    attributed to :data:`ORGANIC_LOAD`.
    """
    grid = timeseries.grid
    long_w, short_w = policy.windows(grid)
    bad = timeseries.bad_counts(policy.latency_threshold_s)
    total = timeseries.finished
    bad_long = _rolling_sum(bad, long_w).astype(np.float64)
    bad_short = _rolling_sum(bad, short_w).astype(np.float64)
    total_long = _rolling_sum(total, long_w).astype(np.float64)
    total_short = _rolling_sum(total, short_w).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        burn_long = np.where(
            total_long > 0, bad_long / total_long, 0.0
        ) / policy.error_budget
        burn_short = np.where(
            total_short > 0, bad_short / total_short, 0.0
        ) / policy.error_budget
    firing = ((burn_long >= policy.burn_rate_threshold)
              & (burn_short >= policy.burn_rate_threshold))

    alerts: List[SLOAlert] = []
    edges = grid.edges
    flat = np.flatnonzero(firing)
    if flat.size:
        breaks = np.flatnonzero(np.diff(flat) > 1)
        run_starts = np.concatenate(([0], breaks + 1))
        run_ends = np.concatenate((breaks, [flat.size - 1]))
        for lo, hi in zip(flat[run_starts].tolist(),
                          flat[run_ends].tolist()):
            window = slice(lo, hi + 1)
            alerts.append(SLOAlert(
                start_s=float(edges[lo]), end_s=float(edges[hi + 1]),
                first_window=lo, last_window=hi,
                peak_burn_long=float(burn_long[window].max()),
                peak_burn_short=float(burn_short[window].max()),
                n_bad=int(bad[window].sum()),
                n_requests=int(total[window].sum())))
    attribute_alerts(alerts, events,
                     lookback_s=policy.lookback_s(grid))
    return MonitoringReport(timeseries=timeseries, policy=policy,
                            bad=bad, burn_long=burn_long,
                            burn_short=burn_short, alerts=alerts,
                            scenario_name=scenario_name)


def attribute_alerts(alerts: Sequence[SLOAlert], events: Sequence,
                     lookback_s: float = 0.0) -> None:
    """Attach fault attributions to ``alerts`` in place.

    An alert is attributed to every fault event whose half-open
    window ``[start, end)`` overlaps ``[alert.start - lookback,
    alert.end]`` — the lookback accounts for queueing echo: a drained
    fault still inflates latencies until the backlog clears.
    Attributions sort by overlap (largest first); an alert no event
    overlaps gets the single :data:`ORGANIC_LOAD` attribution.
    """
    if lookback_s < 0.0:
        raise ConfigurationError(
            f"lookback_s must be >= 0, got {lookback_s}")
    for alert in alerts:
        window_start = alert.start_s - lookback_s
        found: List[AlertAttribution] = []
        for event in events:
            overlap = (min(alert.end_s, event.end)
                       - max(window_start, event.start))
            if overlap > 0.0:
                end = event.end
                found.append(AlertAttribution(
                    cause=event.kind.value,
                    overlap_s=float(overlap),
                    event_start_s=float(event.start),
                    event_end_s=(math.inf if math.isinf(end)
                                 else float(end)),
                    magnitude=float(event.magnitude)))
        found.sort(key=lambda a: (-a.overlap_s, a.cause))
        alert.attributions = (tuple(found) if found
                              else (AlertAttribution(ORGANIC_LOAD),))


def monitor_report(report, policy: SLOPolicy, *,
                   n_windows: int = DEFAULT_N_WINDOWS
                   ) -> MonitoringReport:
    """Timeseries + SLO evaluation + fault attribution in one call.

    Degraded reports carry their :class:`FaultScenario`; its event
    windows drive attribution automatically.  Fault-free reports get
    pure organic-load attribution.
    """
    series = timeseries_from_report(report, n_windows=n_windows)
    scenario = report.scenario
    events = scenario.events if scenario is not None else ()
    return evaluate_slo(series, policy, events=events,
                        scenario_name=report.scenario_name)


__all__ = [
    "DEFAULT_N_WINDOWS",
    "ORGANIC_LOAD",
    "AlertAttribution",
    "MonitoringReport",
    "SLOAlert",
    "SLOPolicy",
    "ServingTimeseries",
    "WindowGrid",
    "attribute_alerts",
    "compute_timeseries",
    "evaluate_slo",
    "fleet_timeseries",
    "monitor_report",
    "timeseries_from_report",
]
