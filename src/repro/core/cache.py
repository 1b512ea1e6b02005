"""Memoization layer for the analytic hot path.

Every capacity and latency number in the reproduction funnels through
:func:`repro.core.optimizer.optimal_policy` (Eq. (1)) and whole-request
estimates, which the sweeps and serving engines re-ask with identical
arguments — the reuse opportunity LLMServingSim exploits.

Both are deterministic in their inputs, so memoized results are
bit-identical to uncached ones (a property test enforces this).
The caches here are process-global, LRU-bounded, thread-safe (the
sweep runner fans out over threads), and report hit/miss counters into
the ambient :mod:`repro.telemetry` registry as
``cache.hits{cache=...}`` / ``cache.misses{cache=...}``.

Cache keys must be hashable.  Most config objects are frozen
dataclasses and hash structurally, but :class:`SystemConfig` holds a
``Dict`` of compute engines and is unhashable; :func:`cache_token`
falls back to a pinned identity token for such objects (the zoo
returns module-level singletons, so identity keying is both safe and
exact — distinct-but-equal systems simply miss the cache).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Tuple

from repro.telemetry.runtime import current as current_telemetry

#: Objects that are not hashable are keyed by identity; the registry
#: pins them so their ``id`` can never be reused by a new object.
_TOKEN_LOCK = threading.Lock()
_TOKENS: Dict[int, Tuple[int, Any]] = {}
_NEXT_TOKEN = 0

#: Sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


def cache_token(obj: Any) -> Any:
    """A hashable stand-in for ``obj`` usable inside cache keys.

    Hashable objects are used directly (structural equality gives
    cross-instance cache hits); unhashable ones get a process-unique
    identity token and are pinned for the process lifetime.
    """
    try:
        hash(obj)
        return obj
    except TypeError:
        pass
    return pinned_token(obj)


def pinned_token(obj: Any) -> int:
    """A process-unique identity token for ``obj``, hashable or not.

    For keys consulted many times per run, structurally hashing a
    deep frozen dataclass (e.g. a :class:`FaultScenario` with its
    event tuple) on *every* lookup can cost more than the cached
    computation; an integer token hashes in nanoseconds.  The object
    is pinned for the process lifetime so its ``id`` can never be
    reused, at the usual identity-keying price: distinct-but-equal
    objects miss the cache.
    """
    global _NEXT_TOKEN
    with _TOKEN_LOCK:
        entry = _TOKENS.get(id(obj))
        if entry is not None and entry[1] is obj:
            return entry[0]
        token = _NEXT_TOKEN
        _NEXT_TOKEN += 1
        _TOKENS[id(obj)] = (token, obj)
        return token


class LruCache:
    """A named, bounded, thread-safe LRU map with telemetry counters."""

    def __init__(self, name: str, maxsize: int = 65536) -> None:
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, hit: bool) -> None:
        telemetry = current_telemetry()
        if telemetry is not None:
            name = "cache.hits" if hit else "cache.misses"
            telemetry.metrics.counter(name, cache=self.name).inc()

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing on miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
        hit = value is not _MISSING
        if not hit:
            # ``compute`` runs outside the lock: it may be expensive
            # and may itself consult another cache.
            value = compute()
            with self._lock:
                self.misses += 1
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        self._count(hit)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {"cache": self.name, "size": len(self._entries),
                "hits": self.hits, "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0}


#: Eq. (1) results: the winning policy for one (stage, B, L) point.
OPTIMAL_POLICY_CACHE = LruCache("optimal_policy", maxsize=65536)
#: Whole-request estimates: the serving warm-up path resolves the
#: same handful of shapes on every fresh simulator.
ESTIMATE_CACHE = LruCache("estimate", maxsize=16384)
#: Per-request stall outcomes of the piecewise degraded engine.  One
#: outcome is pure in ``(scenario, stall probability, request index,
#: chunk count)`` but costs several Mersenne-Twister seedings — the
#: dominant cost of replaying a stall window — so repeated replays of
#: one scenario (benchmark reps, fleet what-ifs) hit here instead.
STALL_OUTCOME_CACHE = LruCache("stall_outcome", maxsize=262144)

_ALL_CACHES = (OPTIMAL_POLICY_CACHE, ESTIMATE_CACHE, STALL_OUTCOME_CACHE)


def clear_caches() -> None:
    """Drop every analytic cache (tests and benchmarks start cold)."""
    for cache in _ALL_CACHES:
        cache.clear()
    # The degraded-system memo feeds identity-token keys into the
    # caches above; clearing one without the other would leak warm
    # state into a "cold" measurement.
    from repro.faults.injector import clear_degraded_memo

    clear_degraded_memo()


def cache_stats() -> List[Dict[str, float]]:
    """Hit/miss/size rows for every analytic cache."""
    return [cache.stats() for cache in _ALL_CACHES]


def cached_estimate(estimator, request):
    """Memoized ``estimator.estimate(request)``.

    :class:`~repro.core.estimator.LiaEstimator` is stateless and its
    estimates are pure in ``(spec, system, config, request)``, so the
    memo is shared across estimator *instances* — a fresh serving
    simulator warms its plan table from here instead of re-running
    the full per-layer assembly.  ``CapacityError`` is never cached;
    oversized shapes re-raise at each call site, exactly like the
    uncached path.  Honors ``config.cache_enabled``.
    """
    if not estimator.config.cache_enabled:
        return estimator.estimate(request)
    key = (cache_token(estimator.spec), cache_token(estimator.system),
           estimator.config, request)
    return ESTIMATE_CACHE.get_or_compute(
        key, lambda: estimator.estimate(request))
