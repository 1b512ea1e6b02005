"""Arrival-trace generators for time-varying multi-tenant workloads.

:func:`arrivals_poisson` (the seed generator, re-exported by
:mod:`repro.serving`) produces a *constant-rate* memoryless stream —
the right null model, but production traffic is none of those
things.  This module adds the three canonical departures and a
session model on top:

* :func:`arrivals_diurnal` — an inhomogeneous Poisson process whose
  rate follows a sinusoid (day/night cycle), generated by exact
  thinning against the peak rate.
* :func:`arrivals_mmpp` — a two-state Markov-modulated Poisson
  process (quiet/burst), the standard "bursty" traffic model: dwell
  times are exponential, and each sojourn emits a conditionally
  uniform Poisson batch at its state's rate.
* :func:`arrivals_heavy_tail` — renewal processes with lognormal or
  Pareto inter-arrival gaps; the Pareto tail (``alpha < 2``) has
  infinite variance, the worst case for queue sizing.
* :func:`session_trace` — multi-turn chat sessions: session starts
  are Poisson, each session then replays a geometric number of turns
  separated by exponential think times, **keyed per session** exactly
  like the fault injector keys per request, so every consumer sees
  the same trace.

Every other generator is a single deterministic pass over one seeded
``numpy`` Generator (plus per-session sub-streams keyed on
``(seed, session)``): the trace depends only on its arguments, never
on scheduling or how many replicas later consume it.  They return a
sorted float64 array of absolute timestamps starting at the first gap
after ``t = 0``, the same convention as ``arrivals_poisson``'s list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "SessionTrace",
    "arrivals_diurnal",
    "arrivals_heavy_tail",
    "arrivals_mmpp",
    "arrivals_poisson",
    "arrivals_sessions",
    "session_trace",
]


def _check_n_and_rate(n_requests: int, rate_per_s: float) -> None:
    if n_requests < 0:
        raise ConfigurationError(
            f"n_requests must be >= 0, got {n_requests}")
    if not rate_per_s > 0.0:
        raise ConfigurationError(
            f"rate_per_s must be positive, got {rate_per_s}")
    if math.isinf(rate_per_s):
        raise ConfigurationError(
            f"rate_per_s must be finite, got {rate_per_s}")


def arrivals_poisson(n_requests: int, rate_per_s: float,
                     seed: int = 0) -> List[float]:
    """Seeded Poisson arrival timestamps (``n_requests`` of them).

    One ``random.Random(seed)`` stream of exponential gaps, shared by
    the serving CLI subcommands, perfbench and ``poisson``
    :class:`~repro.workloads.spec.TraceSpec` specs, so all of them
    replay one byte-identical arrival process.
    """
    _check_n_and_rate(n_requests, rate_per_s)
    rng = random.Random(seed)
    arrivals = []
    clock = 0.0
    for __ in range(n_requests):
        clock += rng.expovariate(rate_per_s)
        arrivals.append(clock)
    return arrivals


def arrivals_diurnal(n_requests: int, rate_per_s: float, *,
                     amplitude: float = 0.8,
                     period_s: float = 3600.0,
                     seed: int = 0) -> np.ndarray:
    """Sinusoidal-rate Poisson arrivals (the day/night cycle).

    The instantaneous rate is ``rate_per_s * (1 + amplitude *
    sin(2*pi*t/period_s))`` — long-run average ``rate_per_s``, peak
    ``(1 + amplitude)`` times that.  Exact thinning: candidates come
    from a homogeneous process at the peak rate and survive with
    probability ``rate(t) / peak``, so the output is a true
    inhomogeneous Poisson process, not a binned approximation.
    """
    _check_n_and_rate(n_requests, rate_per_s)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError(
            f"amplitude must be in [0, 1), got {amplitude}")
    if not period_s > 0.0:
        raise ConfigurationError(
            f"period_s must be positive, got {period_s}")
    if n_requests == 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    peak = rate_per_s * (1.0 + amplitude)
    omega = 2.0 * np.pi / period_s
    accepted: list = []
    collected = 0
    clock = 0.0
    # Each chunk keeps the acceptance loop O(n) in expectation; the
    # candidate clock carries across chunks so the stream is one
    # process however many rounds it takes.
    chunk = max(1024, int(n_requests * (1.0 + amplitude)) + 1)
    while collected < n_requests:
        gaps = rng.exponential(1.0 / peak, size=chunk)
        times = clock + np.cumsum(gaps)
        clock = float(times[-1])
        keep_p = (1.0 + amplitude * np.sin(omega * times)) / (
            1.0 + amplitude)
        kept = times[rng.random(chunk) < keep_p]
        accepted.append(kept)
        collected += kept.size
    return np.concatenate(accepted)[:n_requests]


def arrivals_mmpp(n_requests: int, rate_per_s: float, *,
                  burst_factor: float = 6.0,
                  burst_fraction: float = 0.15,
                  mean_dwell_s: float = 300.0,
                  seed: int = 0) -> np.ndarray:
    """Two-state MMPP (quiet/burst) arrivals — bursty traffic.

    ``burst_fraction`` of the time is spent in the burst state, whose
    rate is ``burst_factor`` times the quiet rate; the quiet rate is
    solved so the long-run average is ``rate_per_s``.  Dwell times
    are exponential with mean ``mean_dwell_s`` (quiet) and
    ``mean_dwell_s * burst_fraction / (1 - burst_fraction)`` (burst),
    which fixes the stationary occupancy at ``burst_fraction``.
    Within one sojourn of length ``d`` at rate ``lam`` the arrivals
    are the conditionally uniform construction: ``Poisson(lam * d)``
    points placed uniformly — an exact Poisson process per state.
    """
    _check_n_and_rate(n_requests, rate_per_s)
    if not burst_factor >= 1.0:
        raise ConfigurationError(
            f"burst_factor must be >= 1, got {burst_factor}")
    if not 0.0 < burst_fraction < 1.0:
        raise ConfigurationError(
            f"burst_fraction must be in (0, 1), got {burst_fraction}")
    if not mean_dwell_s > 0.0:
        raise ConfigurationError(
            f"mean_dwell_s must be positive, got {mean_dwell_s}")
    if n_requests == 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    quiet_rate = rate_per_s / (
        1.0 - burst_fraction + burst_factor * burst_fraction)
    burst_rate = burst_factor * quiet_rate
    dwell_quiet = mean_dwell_s
    dwell_burst = mean_dwell_s * burst_fraction / (1.0 - burst_fraction)
    chunks: list = []
    collected = 0
    clock = 0.0
    in_burst = False
    while collected < n_requests:
        mean_dwell = dwell_burst if in_burst else dwell_quiet
        rate = burst_rate if in_burst else quiet_rate
        dwell = float(rng.exponential(mean_dwell))
        count = int(rng.poisson(rate * dwell))
        if count:
            times = clock + np.sort(rng.random(count)) * dwell
            chunks.append(times)
            collected += count
        clock += dwell
        in_burst = not in_burst
    return np.concatenate(chunks)[:n_requests]


def arrivals_heavy_tail(n_requests: int, rate_per_s: float, *,
                        distribution: str = "lognormal",
                        sigma: float = 1.5,
                        alpha: float = 1.8,
                        seed: int = 0) -> np.ndarray:
    """Renewal arrivals with heavy-tailed inter-arrival gaps.

    Both distributions are scaled so the *mean* gap is
    ``1 / rate_per_s``:

    * ``lognormal`` — ``sigma`` is the shape; variance grows as
      ``exp(sigma**2)``, so bursts and long silences coexist.
    * ``pareto`` — tail index ``alpha`` (must exceed 1 for the mean
      to exist); ``alpha < 2`` gives infinite-variance gaps.
    """
    _check_n_and_rate(n_requests, rate_per_s)
    if distribution not in ("lognormal", "pareto"):
        raise ConfigurationError(
            f"unknown heavy-tail distribution {distribution!r}; "
            "known distributions: lognormal, pareto")
    if not sigma > 0.0:
        raise ConfigurationError(
            f"sigma must be positive, got {sigma}")
    if not alpha > 1.0:
        raise ConfigurationError(
            f"alpha must be > 1 for a finite mean gap, got {alpha}")
    if n_requests == 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / rate_per_s
    if distribution == "lognormal":
        mu = float(np.log(mean_gap)) - 0.5 * sigma * sigma
        gaps = rng.lognormal(mu, sigma, size=n_requests)
    else:
        scale = mean_gap * (alpha - 1.0) / alpha
        gaps = scale * (1.0 + rng.pareto(alpha, size=n_requests))
    return np.cumsum(gaps)


@dataclass(frozen=True)
class SessionTrace:
    """A multi-turn trace: request arrivals plus their session labels.

    ``arrivals`` is sorted; ``session`` and ``turn`` are aligned with
    it (``turn`` counts from 0 within each session), so a prefix-KV
    scheduler can recover the conversation structure.
    """

    arrivals: np.ndarray
    session: np.ndarray
    turn: np.ndarray

    @property
    def n_requests(self) -> int:
        return int(self.arrivals.size)


def session_trace(n_requests: int, rate_per_s: float, *,
                  turns_mean: float = 4.0,
                  think_mean_s: float = 30.0,
                  seed: int = 0) -> SessionTrace:
    """Session-based multi-turn arrivals (chat traffic).

    Sessions open as a Poisson process at ``rate_per_s /
    turns_mean`` (so the long-run *request* rate is ``rate_per_s``);
    session ``s`` then draws its turn count (geometric, mean
    ``turns_mean``) and exponential think times from its own
    generator seeded ``(seed, s)`` — the fault injector's
    per-request keying applied per session, so the trace is
    reproducible stream-by-stream and worker-count-invariant.
    """
    _check_n_and_rate(n_requests, rate_per_s)
    if not turns_mean >= 1.0:
        raise ConfigurationError(
            f"turns_mean must be >= 1, got {turns_mean}")
    if not think_mean_s > 0.0:
        raise ConfigurationError(
            f"think_mean_s must be positive, got {think_mean_s}")
    empty = np.empty(0, dtype=np.float64)
    if n_requests == 0:
        return SessionTrace(empty, np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64))
    opener = np.random.default_rng(seed)
    session_rate = rate_per_s / turns_mean
    times: list = []
    sessions: list = []
    turns: list = []
    collected = 0
    clock = 0.0
    index = 0
    # Overshoot by whole sessions, then truncate to the first
    # n_requests in time order: a session straddling the cut keeps
    # only its early turns, exactly what a finite observation window
    # of an infinite trace would contain.
    while collected < n_requests:
        clock += float(opener.exponential(1.0 / session_rate))
        per_session = np.random.default_rng([seed, index])
        n_turns = int(per_session.geometric(1.0 / turns_mean))
        thinks = per_session.exponential(think_mean_s,
                                         size=n_turns - 1)
        offsets = np.concatenate(
            ([0.0], np.cumsum(thinks))) if n_turns > 1 \
            else np.zeros(1)
        times.append(clock + offsets)
        sessions.append(np.full(n_turns, index, dtype=np.int64))
        turns.append(np.arange(n_turns, dtype=np.int64))
        collected += n_turns
        index += 1
    arrivals = np.concatenate(times)
    session = np.concatenate(sessions)
    turn = np.concatenate(turns)
    order = np.argsort(arrivals, kind="stable")[:n_requests]
    return SessionTrace(arrivals[order], session[order], turn[order])


def arrivals_sessions(n_requests: int, rate_per_s: float, *,
                      turns_mean: float = 4.0,
                      think_mean_s: float = 30.0,
                      seed: int = 0) -> np.ndarray:
    """The :func:`session_trace` arrivals without the labels."""
    return session_trace(n_requests, rate_per_s,
                         turns_mean=turns_mean,
                         think_mean_s=think_mean_s,
                         seed=seed).arrivals
