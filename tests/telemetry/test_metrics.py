"""Counters, gauges, and streaming histograms."""

import math
import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry, StreamingHistogram


def test_counter_get_or_create_by_labels():
    registry = MetricsRegistry()
    a = registry.counter("pcie.bytes", source="cpu", destination="gpu")
    b = registry.counter("pcie.bytes", destination="gpu", source="cpu")
    other = registry.counter("pcie.bytes", source="gpu",
                             destination="cpu")
    a.inc(10)
    b.inc(5)
    assert a is b
    assert a is not other
    assert registry.counter_value("pcie.bytes", source="cpu",
                                  destination="gpu") == 15
    assert registry.counter_value("pcie.bytes", source="gpu",
                                  destination="cpu") == 0.0


def test_counter_rejects_negative_increment():
    with pytest.raises(ConfigurationError):
        MetricsRegistry().counter("x").inc(-1.0)


def test_gauge_set_and_add():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(3.0)
    gauge.add(-1.0)
    assert gauge.value == 2.0


def test_histogram_summary_stats():
    histogram = StreamingHistogram("lat")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.mean == pytest.approx(2.5)
    assert histogram.min == 1.0
    assert histogram.max == 4.0
    assert histogram.quantile(0.0) == 1.0
    assert histogram.quantile(1.0) == 4.0


def test_histogram_quantiles_track_exact_percentiles():
    # Streaming buckets grow by ~2.2%, so any quantile must land
    # within a few percent of the exact order statistic.
    rng = random.Random(7)
    samples = [rng.expovariate(1.0) + 0.01 for __ in range(5000)]
    histogram = StreamingHistogram("lat")
    for sample in samples:
        histogram.observe(sample)
    ordered = sorted(samples)
    for fraction in (0.5, 0.9, 0.95, 0.99):
        exact = ordered[min(len(ordered) - 1,
                            int(fraction * len(ordered)))]
        estimate = histogram.quantile(fraction)
        assert estimate == pytest.approx(exact, rel=0.05)


def test_histogram_bounded_memory():
    histogram = StreamingHistogram("lat")
    for index in range(100_000):
        histogram.observe(0.001 + (index % 1000) * 0.01)
    # 0.001..10 spans ~13 octaves at 32 buckets each — far fewer
    # buckets than samples.
    assert len(histogram._buckets) < 500
    assert histogram.count == 100_000


def test_histogram_nonpositive_and_empty():
    histogram = StreamingHistogram("lat")
    with pytest.raises(ConfigurationError):
        histogram.quantile(0.5)
    histogram.observe(0.0)
    histogram.observe(5.0)
    assert histogram.quantile(0.25) == 0.0
    assert histogram.max == 5.0
    with pytest.raises(ConfigurationError):
        histogram.quantile(1.5)


def test_histogram_single_sample():
    histogram = StreamingHistogram("lat")
    histogram.observe(0.25)
    for fraction in (0.0, 0.5, 0.95, 1.0):
        assert histogram.quantile(fraction) == pytest.approx(0.25)


def _observe(values):
    histogram = StreamingHistogram("lat")
    for value in values:
        histogram.observe(value)
    return histogram


def _state(histogram):
    """Everything ``merge`` must preserve, in comparable form.

    ``total`` is a float sum and so subject to fold order (see the
    ``merge`` docstring); it is compared approximately, everything
    else exactly.
    """
    return (dict(histogram._buckets), histogram._nonpositive,
            histogram.count, pytest.approx(histogram.total),
            histogram.min, histogram.max)


def test_observe_array_matches_observe_at_bucket_boundaries():
    # Values at exact bucket edges GROWTH**i and one float either side
    # of them, where the array path's floor has to agree with the
    # scalar one, among ordinary samples, zeros and negatives.
    growth = StreamingHistogram.GROWTH
    edges = [growth ** index for index in range(-300, 300, 7)]
    rng = random.Random(31)
    values = ([rng.lognormvariate(0.0, 3.0) for __ in range(2000)]
              + [0.0, -0.0, -2.5, 1.0] + edges
              + [math.nextafter(edge, 0.0) for edge in edges]
              + [math.nextafter(edge, math.inf) for edge in edges])
    rng.shuffle(values)
    looped = _observe(values)
    batched = StreamingHistogram("lat")
    batched.observe_array(np.array(values[:1500]))
    batched.observe_array(np.array(values[1500:]))
    assert batched._buckets == looped._buckets
    assert (batched._nonpositive, batched.count, batched.total,
            batched.min, batched.max) == (
        looped._nonpositive, looped.count, looped.total, looped.min,
        looped.max)
    # A fresh histogram takes its buckets in ascending order.
    fresh = StreamingHistogram("lat")
    fresh.observe_array(np.array(values))
    assert list(fresh._buckets) == sorted(looped._buckets)


def test_histogram_merge_equals_single_stream():
    rng = random.Random(13)
    samples = [rng.expovariate(0.5) for __ in range(3000)] + [0.0]
    merged = _observe(samples[:1000]).merge(
        _observe(samples[1000:]))
    whole = _observe(samples)
    assert _state(merged) == _state(whole)
    for fraction in (0.1, 0.5, 0.95, 0.99):
        assert merged.quantile(fraction) == whole.quantile(fraction)


def test_histogram_merge_commutative_and_associative():
    # ``merge`` mutates the receiver, so every ordering starts from
    # fresh copies of the same three streams.
    rng = random.Random(29)
    streams = [[rng.lognormvariate(0.0, 2.0) for __ in range(500)]
               for __ in range(3)]
    a, b, c = streams

    ab = _observe(a).merge(_observe(b))
    ba = _observe(b).merge(_observe(a))
    assert _state(ab) == _state(ba)

    left = _observe(a).merge(_observe(b)).merge(_observe(c))
    right = _observe(a).merge(_observe(b).merge(_observe(c)))
    assert _state(left) == _state(right)


def test_histogram_merge_with_empty_is_identity():
    histogram = _observe([0.5, 2.0, 8.0])
    before = _state(histogram)
    assert _state(histogram.merge(StreamingHistogram("lat"))) == before
    empty = StreamingHistogram("lat")
    assert _state(empty.merge(_observe([0.5, 2.0, 8.0]))) == before


def test_snapshot_rows_are_deterministic_and_typed():
    registry = MetricsRegistry()
    registry.counter("b.counter", phase="decode").inc(2)
    registry.gauge("a.gauge").set(1.5)
    registry.histogram("c.hist").observe(0.5)
    rows = registry.snapshot()
    assert [row["metric"] for row in rows] == ["a.gauge", "b.counter",
                                               "c.hist"]
    by_name = {row["metric"]: row for row in rows}
    assert by_name["b.counter"]["type"] == "counter"
    assert by_name["b.counter"]["labels"] == {"phase": "decode"}
    assert by_name["c.hist"]["count"] == 1
    assert "p95" in by_name["c.hist"]
