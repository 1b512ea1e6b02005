"""Span tracer over simulated clocks."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.spans import Span, TickClock, Tracer


def test_tick_clock_advances_and_rejects_reverse():
    clock = TickClock()
    assert clock() == 0.0
    clock.advance(1.0)
    clock.advance(2.5)
    assert clock() == 3.5
    with pytest.raises(ConfigurationError):
        clock.advance(-1.0)


def test_nested_spans_envelop_children():
    tracer = Tracer()
    with tracer.span("outer", track="engine"):
        tracer.tick()
        with tracer.span("inner", track="cpu"):
            tracer.tick(2.0)
        tracer.tick()
    spans = {span.name: span for span in tracer.spans}
    inner, outer = spans["inner"], spans["outer"]
    assert outer.start <= inner.start
    assert inner.finish <= outer.finish
    assert inner.duration == pytest.approx(2.0)
    assert outer.duration == pytest.approx(4.0)


def test_span_args_and_tracks():
    tracer = Tracer()
    with tracer.span("move", track="pcie", bytes=128) as span:
        span.args["extra"] = True
        tracer.tick()
    assert tracer.tracks() == ["pcie"]
    only = next(s for s in tracer.spans if s.track == "pcie")
    assert only.args == {"bytes": 128, "extra": True}
    assert tracer.busy_time("pcie") == pytest.approx(1.0)


def test_add_span_with_explicit_times():
    tracer = Tracer()
    span = tracer.add_span("req", "server", 1.0, 3.5, batch=4)
    assert isinstance(span, Span)
    assert span.duration == pytest.approx(2.5)
    with pytest.raises(ConfigurationError):
        tracer.add_span("bad", "server", 2.0, 1.0)


def test_tick_requires_tick_clock():
    tracer = Tracer()
    tracer.clock = lambda: 42.0
    with pytest.raises(ConfigurationError):
        tracer.tick()
    with tracer.span("s", track="t"):
        pass
    assert tracer.spans[0].start == 42.0
    assert tracer.spans[0].duration == 0.0
