"""Span-based tracing over simulated clocks.

A :class:`Span` is one named interval on a named track ("gpu",
"pcie", "server", ...), with explicit start/finish timestamps in
*simulated* time — the tracer never reads the wall clock.  Sources
that model time (the DES, the serving simulator) pass their own
timestamps; sources that don't (the functional engine) drive a
:class:`TickClock`, a logical clock that advances one tick per event,
which still yields a correctly ordered, Perfetto-loadable timeline.

Nesting works through ``with tracer.span(...)``: the span opens at
the clock's current time and closes at the (possibly advanced) time
on exit, so children advance the clock and parents envelop them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

from repro.errors import ConfigurationError


@dataclass
class Span:
    """One closed interval of simulated time on a track."""

    name: str
    track: str
    start: float
    finish: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.finish - self.start


class TickClock:
    """A logical clock: time is a count of emitted events.

    Used by the functional engine, which computes real tokens but has
    no latency model — its trace shows *ordering and structure*
    (which sublayer ran where, which transfers it caused), with one
    tick per event, not predicted durations.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, ticks: float) -> float:
        if ticks < 0.0:
            raise ConfigurationError(
                f"clock cannot run backwards (advance by {ticks})")
        self.now += ticks
        return self.now


class Tracer:
    """Collects spans against a clock callable returning sim-time.

    ``clock`` starts as a fresh :class:`TickClock`; simulators that
    already know start/finish times bypass it via :meth:`add_span`.
    """

    def __init__(self) -> None:
        self.clock: Callable[[], float] = TickClock()
        self._spans: List[Span] = []

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, track: str = "main",
             **args: object) -> Iterator[Span]:
        """Open a span now, close it at the clock's time on exit.

        The yielded span is live: callers may update ``args`` while
        it is open (e.g. record bytes moved).
        """
        record = Span(name=name, track=track, start=self.clock(),
                      finish=self.clock(), args=dict(args))
        try:
            yield record
        finally:
            record.finish = self.clock()
            if record.finish < record.start:
                raise ConfigurationError(
                    f"span {name!r}: clock ran backwards "
                    f"({record.start} -> {record.finish})")
            self._spans.append(record)

    def add_span(self, name: str, track: str, start: float,
                 finish: float, **args: object) -> Span:
        """Record a span with explicit sim-time endpoints."""
        if finish < start:
            raise ConfigurationError(
                f"span {name!r}: finish {finish} precedes start {start}")
        record = Span(name=name, track=track, start=start,
                      finish=finish, args=dict(args))
        self._spans.append(record)
        return record

    def tick(self, ticks: float = 1.0) -> None:
        """Advance a :class:`TickClock`; error for real clocks."""
        if not isinstance(self.clock, TickClock):
            raise ConfigurationError(
                "tick() requires a TickClock-backed tracer")
        self.clock.advance(ticks)

    # ------------------------------------------------------------------
    def tracks(self) -> List[str]:
        """All track names, in first-seen order."""
        seen: List[str] = []
        for span in self._spans:
            if span.track not in seen:
                seen.append(span.track)
        return seen

    def busy_time(self, track: str) -> float:
        return sum(s.duration for s in self._spans if s.track == track)
