"""Process pool for the fleet sweeps, with shared-memory workloads.

Estimator grids (the figure drivers, ``policy_map``, ``repro sweep``)
run as plain ordered loops: the estimator is array-native and a pool
costs more than it saves there.  The fleet sweeps —
:func:`~repro.serving.replicas.sweep_fleet_sizes` and
:func:`~repro.serving.fleet.sweep_fleet_grid` — are different: every
cell is a whole serving simulation, and a warm pool wins.  This module
is what they fan out over:

* **Chunk functions, not closures.**  A sweep hands the pool a
  picklable top-level function plus its arguments; each chunk runs
  ``fn(*args, points)`` in a worker and returns one result per point.
  The arguments carry model/system *names*, a frozen config and
  shared-memory handles, so heavyweight objects never cross the
  process boundary.
* **Persistent spawn-safe pools.**  Worker pools use the ``spawn``
  start context (fork is unsafe under threads) and persist across
  sweeps, amortizing interpreter start-up.  :func:`shutdown_pools`
  tears them down and unlinks every published shared-memory segment.
* **Chunked ordered scheduling.**  Points split into chunks whose
  boundaries depend only on the point count — never the pool size —
  and results return in input order, so a sweep is bit-identical at
  any pool size and in process.  The first failing chunk's exception
  propagates (lowest chunk index, deterministically); a worker that
  dies mid-chunk surfaces a one-line
  :class:`~repro.errors.SweepWorkerError` instead of a hang.
* **Zero-copy workloads.**  Columnar arrays travel to workers through
  ``multiprocessing.shared_memory``: :func:`publish_array` /
  :func:`publish_workload` return small picklable handles that
  reattach in workers; segments are refcounted on the parent and
  unlinked on release or pool shutdown.
* **Deterministic telemetry.**  Each chunk runs under a fresh
  :class:`~repro.telemetry.runtime.Telemetry`; the parent merges the
  per-chunk registries into the ambient registry *in chunk order*, so
  merged counters are bit-identical across pool sizes.  (Spans do not
  cross the process boundary; ``telemetry.chunks`` counts the
  merges.)
"""

from __future__ import annotations

import atexit
import math
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Sequence, Tuple)

import numpy as np

from repro.errors import ConfigurationError, SweepWorkerError
from repro.hardware.system import get_system
from repro.models.zoo import get_model
from repro.telemetry.runtime import Telemetry, activate
from repro.telemetry.runtime import current as current_telemetry

if TYPE_CHECKING:
    from repro.core.estimator import LiaEstimator
    from repro.models.workload import InferenceRequest
    from repro.serving.vectorized import WorkloadVector

#: A sweep splits into at most this many chunks.  Fixed — not derived
#: from the pool size — so chunk boundaries, per-chunk telemetry, and
#: the merge order depend only on the number of points; that is what
#: makes results bit-identical across pool sizes.
TARGET_CHUNKS = 32

#: ``fn(*args, points) -> one result per point``.
ChunkFn = Callable[..., List[Any]]


def use_pool(estimator: "LiaEstimator", processes: int) -> bool:
    """Whether a fleet sweep over ``estimator`` goes to the pool.

    ``processes`` must be ``>= 0``; 0 keeps the sweep in process.
    The pool ships zoo names, not objects, so a hand-built spec or a
    mutated system (which would rebuild differently by name) stays in
    process too.
    """
    if processes < 0:
        raise ConfigurationError(
            f"processes must be >= 0, got {processes}")
    if processes == 0:
        return False
    try:
        return (get_model(estimator.spec.name) is estimator.spec
                and get_system(estimator.system.name)
                is estimator.system)
    except ConfigurationError:  # not a zoo name
        return False


# ----------------------------------------------------------------------
# Shared-memory array transport
# ----------------------------------------------------------------------
@dataclass
class _Segment:
    shm: shared_memory.SharedMemory
    refs: int = 1


#: Parent-side: segments this process published (owns the unlink).
_PUBLISHED: Dict[str, _Segment] = {}
#: Worker-side: segments this process attached to (owns only a view).
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


@dataclass(frozen=True)
class ShmArrayHandle:
    """A picklable handle to a numpy array in shared memory.

    Travels among a chunk function's arguments; ``array()`` in a
    worker maps the segment and returns a zero-copy view.  The view
    is read-only by contract: chunks run concurrently over the same
    pages.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def array(self) -> np.ndarray:
        shm = _attach_segment(self.name)
        view: np.ndarray = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
        view.flags.writeable = False
        return view


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    segment = _PUBLISHED.get(name)
    if segment is not None:
        return segment.shm
    shm = _ATTACHED.get(name)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ConfigurationError(
                f"shared-memory segment {name!r} is gone — published "
                f"arrays do not outlive release()/shutdown_pools()"
            ) from None
        # Pool workers share the parent's resource tracker (the spawn
        # context passes the tracker fd down), and registration is a
        # set — attaching again is a no-op there, and the parent's
        # unlink on release() unregisters exactly once.  Unregistering
        # here (the pre-3.13 lore for *unrelated* processes) would
        # double-remove the name and crash the tracker at exit.
        _ATTACHED[name] = shm
    return shm


def publish_array(array: np.ndarray) -> ShmArrayHandle:
    """Copy ``array`` into a shared segment and return its handle.

    The segment is refcounted (see :func:`retain` / :func:`release`)
    and unlinked when the count reaches zero or on
    :func:`shutdown_pools` — whichever comes first.
    """
    source = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True,
                                     size=max(1, source.nbytes))
    view: np.ndarray = np.ndarray(source.shape, dtype=source.dtype,
                                  buffer=shm.buf)
    view[...] = source
    _PUBLISHED[shm.name] = _Segment(shm=shm)
    return ShmArrayHandle(name=shm.name, shape=tuple(source.shape),
                          dtype=source.dtype.str)


def retain(handle: ShmArrayHandle) -> None:
    """Add a reference to a published segment."""
    segment = _PUBLISHED.get(handle.name)
    if segment is None:
        raise ConfigurationError(
            f"segment {handle.name!r} is not published by this process")
    segment.refs += 1


def _unlink(segment: _Segment) -> None:
    segment.shm.close()
    try:
        segment.shm.unlink()
    except FileNotFoundError:
        pass


def release(handle: ShmArrayHandle) -> None:
    """Drop a reference; the last one closes and unlinks the segment.

    Workers that already attached keep their mapping alive (POSIX
    unlink semantics); new attaches fail with a one-line error.
    """
    segment = _PUBLISHED.get(handle.name)
    if segment is None:
        return
    segment.refs -= 1
    if segment.refs <= 0:
        del _PUBLISHED[handle.name]
        _unlink(segment)


def published_segments() -> List[str]:
    """Names of segments this process currently owns (tests/debug)."""
    return sorted(_PUBLISHED)


@dataclass(frozen=True)
class SharedWorkload:
    """A columnar :class:`WorkloadVector` published for zero-copy use.

    The (tiny) unique-shape tuple pickles by value; the arrival-coded
    ``codes`` column rides shared memory.  ``attach()`` in a worker
    rebuilds the workload without copying the array.
    """

    shapes: Tuple["InferenceRequest", ...]
    codes: ShmArrayHandle

    def attach(self) -> "WorkloadVector":
        from repro.serving.vectorized import WorkloadVector

        return WorkloadVector(shapes=self.shapes,
                              codes=self.codes.array())


def publish_workload(workload: "WorkloadVector") -> SharedWorkload:
    """Publish a workload's columnar form into shared memory."""
    return SharedWorkload(shapes=workload.shapes,
                          codes=publish_array(workload.codes))


def release_workload(shared: SharedWorkload) -> None:
    """Release the workload's shared-memory column."""
    release(shared.codes)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_chunk(fn: ChunkFn, args: Tuple[Any, ...], points: List[Any],
               collect_telemetry: bool):
    """Execute one chunk inside a worker process.

    When the parent had ambient telemetry, the chunk runs under a
    fresh registry whose state returns with the results for an
    ordered merge.
    """
    if not collect_telemetry:
        return fn(*args, points), None
    telemetry = Telemetry()
    with activate(telemetry):
        results = fn(*args, points)
    return results, telemetry.metrics


# ----------------------------------------------------------------------
# Persistent pools
# ----------------------------------------------------------------------
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_ATEXIT_REGISTERED = False


def _pool(processes: int) -> ProcessPoolExecutor:
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(processes)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=processes,
                                   mp_context=get_context("spawn"))
        _POOLS[processes] = pool
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
    return pool


def shutdown_pools() -> None:
    """Stop every worker pool and unlink all published segments."""
    for pool in _POOLS.values():
        pool.shutdown(wait=True, cancel_futures=True)
    _POOLS.clear()
    for name in list(_PUBLISHED):
        _unlink(_PUBLISHED.pop(name))


def _discard_pool(processes: int) -> None:
    pool = _POOLS.pop(processes, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def chunk_bounds(n_points: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` chunk boundaries for ``n_points``.

    A pure function of the point count (never the pool size), so the
    chunk a point lands in — and the telemetry merge order — is
    invariant across pool sizes.
    """
    if n_points <= 0:
        return []
    size = max(1, math.ceil(n_points / TARGET_CHUNKS))
    return [(start, min(start + size, n_points))
            for start in range(0, n_points, size)]


def run_process_sweep(fn: ChunkFn, args: Sequence[Any],
                      points: Iterable[Any], *,
                      processes: int) -> List[Any]:
    """``fn(*args, chunk)`` over every chunk of ``points``, in order.

    ``fn`` must be a picklable top-level function returning one result
    per point of its chunk.  Runs over the persistent pool of
    ``processes`` workers (0 runs the whole sweep as one in-process
    call).  Results return in input order; the lowest-indexed failing
    chunk's exception propagates; a dead worker raises a one-line
    :class:`SweepWorkerError`.
    """
    items = list(points)
    call_args = tuple(args)
    if processes < 0:
        raise ConfigurationError(
            f"processes must be >= 0, got {processes}")
    if not items:
        return []
    if processes == 0:
        return fn(*call_args, items)

    telemetry = current_telemetry()
    collect = telemetry is not None
    pool = _pool(processes)
    bounds = chunk_bounds(len(items))
    where = (f"{fn.__qualname__}, {len(items)} points, {processes} "
             f"processes")
    futures: List[Future] = []
    try:
        for start, stop in bounds:
            futures.append(pool.submit(
                _run_chunk, fn, call_args, items[start:stop], collect))
    except BrokenProcessPool:
        _discard_pool(processes)
        raise SweepWorkerError(
            f"sweep worker died ({where}); rerun with processes=0 to "
            f"bisect") from None

    results: List[Any] = []
    try:
        for future in futures:
            chunk_results, chunk_metrics = future.result()
            results.extend(chunk_results)
            if collect and chunk_metrics is not None:
                assert telemetry is not None
                telemetry.metrics.merge(chunk_metrics)
                telemetry.metrics.counter("telemetry.chunks").inc()
    except BrokenProcessPool:
        _discard_pool(processes)
        raise SweepWorkerError(
            f"sweep worker died mid-chunk ({where}); rerun with "
            f"processes=0 to bisect") from None
    except Exception:
        for future in futures:
            future.cancel()
        raise
    return results
