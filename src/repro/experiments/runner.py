"""Deterministic parallel sweep runner for experiment grids.

Every figure-level experiment is a map over independent grid points
(Eq. (1) searches for Fig. 9, request estimates for Figs. 10/11).
:func:`run_sweep` fans those points out — over a thread pool, or over
the persistent **process** pool of
:mod:`repro.experiments.parallel` — and returns results **in input
order**, so a parallel sweep is bit-identical to a serial one:
parallelism is purely a wall-clock optimization.

Two executors, one interface:

* **Threads** (default) — the work may close over model/system/config
  objects that are not picklable-by-contract.  Capped at
  :data:`_MAX_DEFAULT_WORKERS` by default; the analytic kernel is
  GIL-bound beyond that.
* **Processes** (``REPRO_SWEEP_PROCESSES`` / ``processes=``) — used
  when ``fn`` is a :class:`~repro.experiments.parallel.KernelCall`
  (a named, picklable task).  Scales past the GIL with **no** worker
  cap; closures are rebuilt per worker from the kernel registry, and
  per-chunk telemetry merges back deterministically.  A plain
  closure silently stays on the thread path — the process pool
  cannot transport it.

``workers=0`` is the explicit serial mode: every point runs on the
caller's thread, no pool is created, and ``REPRO_SWEEP_WORKERS=0``
forces the same everywhere (useful when bisecting).

The ambient telemetry context (a ``ContextVar``) does not propagate
into pool threads on its own; the runner captures the caller's
telemetry and re-activates it inside each worker so ``policy.*``
counters keep flowing during parallel sweeps.  The
process path does the equivalent with per-worker registries merged
on join (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ConfigurationError
from repro.experiments.parallel import (KernelCall, default_processes,
                                        run_process_sweep)
from repro.telemetry.runtime import activate
from repro.telemetry.runtime import current as current_telemetry

PointT = TypeVar("PointT")
ResultT = TypeVar("ResultT")

#: Environment override for the default thread count (0 forces serial
#: execution everywhere — useful when bisecting).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Thread fan-out beyond this buys nothing for the GIL-bound analytic
#: kernel.  The cap applies to the *thread* path only — the process
#: executor (``REPRO_SWEEP_PROCESSES``) has no cap.
_MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """Thread count: ``$REPRO_SWEEP_WORKERS`` or a capped cpu_count.

    ``0`` passes through as the explicit serial mode (no pool at
    all); any other value is used verbatim.
    """
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
        if value < 0:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be >= 0, got {value}")
        return value
    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS))


def run_sweep(fn: Callable[[PointT], ResultT],
              points: Iterable[PointT], *,
              workers: Optional[int] = None,
              processes: Optional[int] = None) -> List[ResultT]:
    """Apply ``fn`` to every point, in order, possibly in parallel.

    ``workers=None`` resolves via :func:`default_workers`;
    ``workers=0`` (or ``$REPRO_SWEEP_WORKERS=0``) runs serially on
    the caller's thread, as does a single point.  When ``fn`` is a
    :class:`~repro.experiments.parallel.KernelCall` and ``processes``
    (default ``$REPRO_SWEEP_PROCESSES``) is positive, the sweep runs
    on the persistent process pool instead.  Results come back
    ordered like ``points`` on every path — thread, process, and
    serial sweeps are bit-identical by contract — and the first
    exception any point raises propagates to the caller.
    """
    items = list(points)
    if processes is None:
        processes = default_processes()
    if processes < 0:
        raise ConfigurationError(
            f"processes must be >= 0, got {processes}")
    if processes > 0 and isinstance(fn, KernelCall) and len(items) > 1:
        return run_process_sweep(fn, items, processes=processes)
    if workers is None:
        workers = default_workers()
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0, got {workers}")
    if workers <= 1 or len(items) <= 1:
        return [fn(point) for point in items]

    telemetry = current_telemetry()

    def call(point: PointT) -> ResultT:
        if telemetry is None:
            return fn(point)
        with activate(telemetry):
            return fn(point)

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(workers, len(items))) as pool:
        return list(pool.map(call, items))
