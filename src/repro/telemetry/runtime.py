"""The telemetry handle and its ambient activation context.

Instrumented components — the serving engines, the fleet
simulators, the functional engine, the policy optimizer's Eq. (1)
search deep inside every estimate — all read the *ambient* telemetry
installed by ``with activate(telemetry):``; none takes a telemetry
parameter.  When nothing is active, :func:`current` returns ``None`` and
instrumentation reduces to one branch — runs without telemetry pay
essentially nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


@dataclass
class Telemetry:
    """One run's metrics registry + tracer, exported together."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)


_ACTIVE: ContextVar[Optional[Telemetry]] = ContextVar(
    "repro_telemetry", default=None)


def current() -> Optional[Telemetry]:
    """The ambient telemetry, or ``None`` when none is active."""
    return _ACTIVE.get()


@contextmanager
def activate(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient sink for the block."""
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)
