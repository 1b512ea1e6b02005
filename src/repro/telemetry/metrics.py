"""Labelled counters, gauges, and streaming histograms.

The registry is the numeric half of the telemetry layer: every
instrumented subsystem (engine, serving simulator, CXL tiering,
policy optimizer) reports into one :class:`MetricsRegistry`, and the
exporters in :mod:`repro.telemetry.export` turn its snapshot into
JSON/CSV rows.

Histograms are *streaming*: they bucket observations geometrically
(HdrHistogram-style) so p50/p95/p99 come out of O(buckets) memory
instead of storing every sample — the property that lets the serving
simulator track per-request latency for arbitrarily long runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Sorted (key, value) pairs — the canonical hashable form of a label set.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing value (bytes moved, policies tried)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ConfigurationError(
                f"counter {self.name}: increment must be >= 0, "
                f"got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (queue depth, resident layers)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class StreamingHistogram:
    """Geometric-bucket histogram with bounded memory.

    Positive observations land in bucket ``floor(log_base(value))``
    with ``base = GROWTH ** 1`` (about 2.2% relative width), so any
    quantile estimate is within one bucket — ~2% relative error —
    of the exact order statistic.  Zero and negative values share a
    dedicated bucket (sim timestamps start at 0.0).
    """

    #: Per-bucket growth factor: 32 buckets per octave.
    GROWTH = 2.0 ** (1.0 / 32.0)

    def __init__(self, name: str = "", labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._buckets: Dict[int, int] = {}
        self._nonpositive = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= 0.0:
            self._nonpositive += 1
            return
        index = self.bucket_of(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @classmethod
    def bucket_of(cls, value: float) -> int:
        """The bucket a positive ``value`` lands in."""
        return math.floor(math.log(value) / math.log(cls.GROWTH))

    @classmethod
    def bucket_value(cls, index: Optional[int], low: float,
                     high: float) -> float:
        """What a quantile reads from bucket ``index`` of samples
        spanning ``[low, high]``: the bucket's geometric midpoint
        clamped to that range, or ``max(low, 0)`` for the bucket of
        zero and negative values (``index`` ``None``)."""
        if index is None:
            return max(low, 0.0)
        lower = cls.GROWTH ** index
        upper = cls.GROWTH ** (index + 1)
        return min(max(math.sqrt(lower * upper), low), high)

    def observe_array(self, values) -> None:
        """Batch-observe a numpy array of values.

        Produces *exactly* the state that observing each element in
        order would: the running total folds left-to-right
        (:func:`~repro.arrays.left_fold`, so the float rounding
        matches), and bucket indices computed with ``np.log``
        are re-checked with ``math.log`` whenever the quotient sits
        within 1e-9 of an integer boundary — the only place the two
        libm implementations could disagree on the floor.
        """
        import numpy as np

        from repro.arrays import left_fold

        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        self.total = left_fold(self.total, flat)
        self.count += int(flat.size)
        low = float(flat.min())
        high = float(flat.max())
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)
        positive = flat[flat > 0.0]
        self._nonpositive += int(flat.size - positive.size)
        if positive.size == 0:
            return
        inv_log_growth = math.log(self.GROWTH)
        quotient = np.log(positive) / inv_log_growth
        index = np.floor(quotient)
        fraction = quotient - index
        for at in np.flatnonzero((fraction < 1e-9)
                                 | (fraction > 1.0 - 1e-9)).tolist():
            index[at] = self.bucket_of(float(positive[at]))
        # All positive float64 values span ~67k buckets, so counting
        # by offset from the lowest is one linear pass where
        # ``np.unique`` would sort.
        indices = index.astype(np.int64)
        first = int(indices.min())
        counts = np.bincount(indices - first)
        buckets = np.flatnonzero(counts)
        for bucket, count in zip((buckets + first).tolist(),
                                 counts[buckets].tolist()):
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other``'s state into this histogram, in place.

        Buckets share the class-wide :data:`GROWTH` geometry, so
        merging is pure addition of bucket counts — the property that
        makes per-replica latency sketches combine into an exact
        fleet sketch (same buckets as observing every sample into
        one histogram; only ``total`` is subject to float fold
        order).  Returns ``self`` so merges chain/fold naturally.
        """
        for bucket, count in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count
        self._nonpositive += other._nonpositive
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = (other.min if self.min is None
                        else min(self.min, other.min))
        if other.max is not None:
            self.max = (other.max if self.max is None
                        else max(self.max, other.max))
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` in [0, 1] of the ordering."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in [0, 1], got {fraction}")
        if self.count == 0:
            raise ConfigurationError(
                f"histogram {self.name or '<anonymous>'} is empty")
        if fraction == 0.0:
            return self.min
        if fraction == 1.0:
            return self.max
        # Rank of the order statistic the fraction selects (1-based,
        # nearest-rank ceil, clamped) — the same convention as
        # ServingReport.latency_percentile, so the streaming estimate
        # cross-checks against the exact math on the same run.
        rank = min(self.count, max(1, math.ceil(fraction * self.count)))
        seen = self._nonpositive
        if rank <= seen:
            return self.bucket_value(None, self.min, self.max)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                return self.bucket_value(index, self.min, self.max)
        return self.max

    def percentiles(self) -> Dict[str, float]:
        """The standard latency summary, keyed ``p50``/``p95``/``p99``."""
        return {f"p{round(fraction * 100):d}": self.quantile(fraction)
                for fraction in (0.5, 0.95, 0.99)}


class MetricsRegistry:
    """Get-or-create store of labelled metrics.

    ``registry.counter("pcie.bytes", source="cpu", destination="gpu")``
    returns the same :class:`Counter` on every call with the same
    name and labels; distinct label sets are distinct series.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey],
                               StreamingHistogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        if key not in self._counters:
            self._counters[key] = Counter(name=name, labels=key[1])
        return self._counters[key]

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge(name=name, labels=key[1])
        return self._gauges[key]

    def histogram(self, name: str, **labels: str) -> StreamingHistogram:
        key = (name, _label_key(labels))
        if key not in self._histograms:
            self._histograms[key] = StreamingHistogram(name=name,
                                                       labels=key[1])
        return self._histograms[key]

    # ------------------------------------------------------------------
    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[StreamingHistogram]:
        return iter(self._histograms.values())

    def counter_value(self, name: str, **labels: str) -> float:
        """Current value, 0.0 if the series was never touched."""
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        return metric.value if metric else 0.0

    def snapshot(self) -> List[Dict[str, object]]:
        """All metrics as flat rows (the exporters' input format).

        Each row carries ``metric``/``type``/``labels`` plus either a
        ``value`` (counter, gauge) or the count/mean/min/max/pXX
        summary (histogram).  Rows are sorted for deterministic output.
        """
        rows: List[Dict[str, object]] = []
        for counter in self._counters.values():
            rows.append({"metric": counter.name, "type": "counter",
                         "labels": dict(counter.labels),
                         "value": counter.value})
        for gauge in self._gauges.values():
            rows.append({"metric": gauge.name, "type": "gauge",
                         "labels": dict(gauge.labels),
                         "value": gauge.value})
        for histogram in self._histograms.values():
            row: Dict[str, object] = {
                "metric": histogram.name, "type": "histogram",
                "labels": dict(histogram.labels),
                "count": histogram.count, "mean": histogram.mean,
                "min": histogram.min or 0.0,
                "max": histogram.max or 0.0,
            }
            if histogram.count:
                row.update(histogram.percentiles())
            rows.append(row)
        rows.sort(key=lambda r: (str(r["metric"]), str(r["labels"])))
        return rows
