"""Declarative trace specifications: validation, loading, presets.

The JSON/YAML surface for :mod:`repro.workloads.traces`: every
invalid field raises a one-line :class:`ConfigurationError` at
construction time, dicts round-trip exactly through the one spec
codec in :mod:`repro.specs`, and a handful of named presets give the
CLI and tests a shared vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.specs import (build_all, load_spec, lookup, spec_from_dict,
                         spec_to_dict)
from repro.workloads.traces import (arrivals_diurnal, arrivals_heavy_tail,
                                    arrivals_mmpp, arrivals_poisson,
                                    arrivals_sessions)

__all__ = [
    "TRACE_KINDS",
    "TraceSpec",
    "builtin_traces",
    "get_trace",
    "load_trace",
    "trace_from_dict",
    "trace_to_dict",
]

#: The arrival-process families a spec can name.
TRACE_KINDS = ("poisson", "diurnal", "bursty", "heavy-tail", "sessions")


@dataclass(frozen=True)
class TraceSpec:
    """One arrival trace, fully determined by its fields.

    Only the parameters of the selected ``kind`` matter; the rest
    keep their defaults so specs stay terse.  ``generate()`` is the
    single entry point — two equal specs always produce bit-identical
    arrays.
    """

    name: str = "trace"
    kind: str = "poisson"
    n_requests: int = 10_000
    rate_per_s: float = 1.0
    seed: int = 0
    # diurnal
    amplitude: float = 0.8
    period_s: float = 3600.0
    # bursty (MMPP)
    burst_factor: float = 6.0
    burst_fraction: float = 0.15
    mean_dwell_s: float = 300.0
    # heavy-tail
    distribution: str = "lognormal"
    sigma: float = 1.5
    alpha: float = 1.8
    # sessions
    turns_mean: float = 4.0
    think_mean_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ConfigurationError(
                f"unknown trace kind {self.kind!r}; "
                f"known kinds: {', '.join(TRACE_KINDS)}")
        if self.n_requests < 0:
            raise ConfigurationError(
                f"n_requests must be >= 0, got {self.n_requests}")
        if not self.rate_per_s > 0.0:  # NaN fails too
            raise ConfigurationError(
                f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed}")

    def generate(self) -> np.ndarray:
        """The trace as a sorted float64 array of timestamps."""
        if self.kind == "poisson":
            return np.asarray(arrivals_poisson(
                self.n_requests, self.rate_per_s, seed=self.seed),
                dtype=np.float64)
        if self.kind == "diurnal":
            return arrivals_diurnal(
                self.n_requests, self.rate_per_s,
                amplitude=self.amplitude, period_s=self.period_s,
                seed=self.seed)
        if self.kind == "bursty":
            return arrivals_mmpp(
                self.n_requests, self.rate_per_s,
                burst_factor=self.burst_factor,
                burst_fraction=self.burst_fraction,
                mean_dwell_s=self.mean_dwell_s, seed=self.seed)
        if self.kind == "heavy-tail":
            return arrivals_heavy_tail(
                self.n_requests, self.rate_per_s,
                distribution=self.distribution, sigma=self.sigma,
                alpha=self.alpha, seed=self.seed)
        return arrivals_sessions(
            self.n_requests, self.rate_per_s,
            turns_mean=self.turns_mean,
            think_mean_s=self.think_mean_s, seed=self.seed)

    def scaled(self, n_requests: int) -> "TraceSpec":
        """The same process observed for ``n_requests`` arrivals."""
        return replace(self, n_requests=n_requests)


def trace_from_dict(data: Any) -> TraceSpec:
    """Build a validated :class:`TraceSpec` from a plain dict."""
    return spec_from_dict(TraceSpec, data, "trace spec")


def trace_to_dict(spec: TraceSpec) -> Dict[str, Any]:
    """The inverse of :func:`trace_from_dict` (exact round-trip)."""
    return spec_to_dict(spec)


def load_trace(path: str) -> TraceSpec:
    """Load a trace spec from a JSON (always) or YAML file."""
    return load_spec(TraceSpec, path, "trace spec")


def _steady() -> TraceSpec:
    return TraceSpec(name="steady", kind="poisson", rate_per_s=0.2,
                     seed=1)


def _diurnal() -> TraceSpec:
    return TraceSpec(name="diurnal", kind="diurnal", rate_per_s=0.2,
                     amplitude=0.8, period_s=3600.0, seed=2)


def _bursty() -> TraceSpec:
    return TraceSpec(name="bursty", kind="bursty", rate_per_s=0.2,
                     burst_factor=6.0, burst_fraction=0.15,
                     mean_dwell_s=300.0, seed=3)


def _heavy_tail() -> TraceSpec:
    return TraceSpec(name="heavy-tail", kind="heavy-tail",
                     rate_per_s=0.2, distribution="pareto", alpha=1.8,
                     seed=4)


def _sessions() -> TraceSpec:
    return TraceSpec(name="sessions", kind="sessions", rate_per_s=0.2,
                     turns_mean=4.0, think_mean_s=20.0, seed=5)


_PRESETS = {
    "steady": _steady,
    "diurnal": _diurnal,
    "bursty": _bursty,
    "heavy-tail": _heavy_tail,
    "sessions": _sessions,
}


def builtin_traces() -> Dict[str, TraceSpec]:
    """Every built-in trace preset, by name (sorted)."""
    return build_all(_PRESETS)


def get_trace(name: str) -> TraceSpec:
    """Look up one preset; unknown names raise a one-line error."""
    return lookup(_PRESETS, name, "trace preset")
