"""Process-parallel sweep execution with shared-memory workloads.

:func:`repro.experiments.runner.run_sweep` fans grid points out over
threads, which is enough for cache-hit-dominated estimator sweeps but
leaves the big grids — Fig. 9/10/11 regeneration, trace x fleet x
scenario sweeps — GIL-bound around the numpy kernels.  This module
adds a **multiprocess** executor behind the same deterministic
interface:

* **Named kernels, not pickled closures.**  Sweep work closes over
  model/system/estimator objects that are not picklable-by-contract.
  A :class:`KernelCall` therefore names a *registered kernel* plus a
  small picklable context (model/system names, a frozen config, a
  shared-memory handle); each worker rebuilds the closure once via the
  registry and memoizes it, so its :mod:`repro.core.cache` state stays
  warm across chunks and sweeps.
* **Persistent spawn-safe pools.**  Worker pools use the ``spawn``
  start context (fork is unsafe under threads) and persist across
  ``run_process_sweep`` calls, amortizing interpreter start-up and
  keeping per-worker caches warm.  :func:`shutdown_pools` tears them
  down and unlinks every published shared-memory segment.
* **Chunked ordered scheduling.**  Points split into chunks whose
  boundaries depend only on the point count — never the pool size —
  and results return in input order, so a sweep is bit-identical
  across ``REPRO_SWEEP_PROCESSES`` values and vs the thread/serial
  paths.  The first failing chunk's exception propagates (lowest
  chunk index, deterministically); a worker that dies mid-chunk
  surfaces a one-line :class:`~repro.errors.SweepWorkerError` instead
  of a hang.
* **Zero-copy workloads.**  Columnar arrays travel to workers through
  ``multiprocessing.shared_memory``: :func:`publish_array` /
  :func:`publish_workload` return small picklable handles that
  reattach in workers; segments are refcounted on the parent and
  unlinked on release or pool shutdown.
* **Deterministic telemetry.**  Each chunk runs under a fresh
  :class:`~repro.telemetry.runtime.Telemetry`; the parent merges the
  per-chunk registries into the ambient registry *in chunk order*, so
  merged counters are bit-identical across process counts.  (Spans do
  not cross the process boundary; ``telemetry.chunks`` counts the
  merges.)
* **Keyed RNG.**  :func:`sweep_rng` / :func:`sweep_generator` derive
  a per-point RNG from ``(seed, point index)`` exactly like
  :meth:`repro.faults.spec.FaultScenario.rng_for`, so sampled
  workloads are worker-count-invariant by construction.
"""

from __future__ import annotations

import atexit
import math
import os
import random
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

import numpy as np

from repro.errors import ConfigurationError, SweepWorkerError
from repro.telemetry.runtime import Telemetry, activate
from repro.telemetry.runtime import current as current_telemetry

if TYPE_CHECKING:
    from repro.models.workload import InferenceRequest
    from repro.serving.vectorized import WorkloadVector

#: Environment override for the process-pool size.  Unset or ``0``
#: disables the process path (thread/serial execution); ``1`` runs a
#: real one-worker pool — the strongest determinism probe, since it
#: exercises the full pickle/spawn/merge machinery.
PROCESSES_ENV = "REPRO_SWEEP_PROCESSES"

#: A sweep splits into at most this many chunks.  Fixed — not derived
#: from the pool size — so chunk boundaries, per-chunk telemetry, and
#: the merge order depend only on the number of points; that is what
#: makes results bit-identical across ``REPRO_SWEEP_PROCESSES``.
TARGET_CHUNKS = 32

#: The fault injector's seed-mixing constant, reused so sweep RNG
#: derivation follows the same ``(seed, index)`` keying contract.
_SEED_MIX = 0x9E3779B1


def default_processes() -> int:
    """Pool size from ``$REPRO_SWEEP_PROCESSES``; 0 = disabled.

    Unlike the thread path's ``default_workers`` there is **no**
    8-worker cap: process fan-out scales past the GIL, so the env
    value is honored verbatim.
    """
    env = os.environ.get(PROCESSES_ENV, "").strip()
    if not env:
        return 0
    try:
        value = int(env)
    except ValueError:
        raise ConfigurationError(
            f"{PROCESSES_ENV} must be an integer, got {env!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"{PROCESSES_ENV} must be >= 0, got {value}")
    return value


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------
#: A kernel factory rebuilds the sweep closure from a picklable
#: context: ``factory(*ctx) -> (point -> result)``.
KernelFactory = Callable[..., Callable[[Any], Any]]

_KERNELS: Dict[str, KernelFactory] = {}

#: Per-process memo of resolved closures, keyed ``(kernel, ctx)`` —
#: a worker rebuilds each estimator/simulator once, not per chunk.
_RESOLVED: Dict[Any, Callable[[Any], Any]] = {}


def sweep_kernel(name: str) -> Callable[[KernelFactory], KernelFactory]:
    """Register ``factory`` under ``name`` (decorator)."""
    if not name:
        raise ConfigurationError("kernel name must be non-empty")

    def register(factory: KernelFactory) -> KernelFactory:
        existing = _KERNELS.get(name)
        if existing is not None and existing is not factory:
            raise ConfigurationError(
                f"sweep kernel {name!r} is already registered")
        _KERNELS[name] = factory
        return factory

    return register


def kernel_names() -> List[str]:
    """Registered kernel names (built-ins load on first use)."""
    _load_builtin_kernels()
    return sorted(_KERNELS)


def _load_builtin_kernels() -> None:
    # Imported lazily: the kernels module pulls in drivers/serving,
    # which import the runner — a cycle at module-import time.
    import repro.experiments.kernels  # noqa: F401


def resolve_kernel(name: str) -> KernelFactory:
    """The factory behind ``name``.

    Besides registered names, ``"pkg.module:attr"`` resolves by
    import — the escape hatch tests and downstream code use to run
    kernels that are not part of the built-in registry (the module
    must be importable inside spawned workers).
    """
    _load_builtin_kernels()
    if ":" in name:
        module_name, _, attr = name.partition(":")
        try:
            import importlib

            module = importlib.import_module(module_name)
        except ImportError as error:
            raise ConfigurationError(
                f"cannot import kernel module {module_name!r}: "
                f"{error}") from None
        factory = getattr(module, attr, None)
        if factory is None:
            raise ConfigurationError(
                f"module {module_name!r} has no kernel {attr!r}")
        return factory
    factory = _KERNELS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown sweep kernel {name!r}; registered: "
            f"{', '.join(kernel_names()) or '(none)'}")
    return factory


def _resolved_fn(name: str, ctx: Tuple[Any, ...]) -> Callable[[Any], Any]:
    try:
        key = (name, ctx)
        hash(key)
    except TypeError:
        return resolve_kernel(name)(*ctx)
    fn = _RESOLVED.get(key)
    if fn is None:
        fn = resolve_kernel(name)(*ctx)
        _RESOLVED[key] = fn
    return fn


@dataclass(frozen=True)
class KernelCall:
    """A picklable sweep task: a kernel name plus its rebuild context.

    Callable like the closure it names, so the thread/serial paths in
    :func:`~repro.experiments.runner.run_sweep` accept it unchanged —
    the process path is purely a transport decision.
    """

    kernel: str
    ctx: Tuple[Any, ...] = ()

    def resolve(self) -> Callable[[Any], Any]:
        """Rebuild (or fetch the memoized) point function."""
        return _resolved_fn(self.kernel, self.ctx)

    def __call__(self, point: Any) -> Any:
        return self.resolve()(point)


# ----------------------------------------------------------------------
# Keyed RNG (worker-count-invariant by construction)
# ----------------------------------------------------------------------
def sweep_rng(seed: int, index: int) -> random.Random:
    """A stdlib RNG keyed ``(seed, point index)``.

    The same derivation as ``FaultScenario.rng_for``: outcomes depend
    only on the sweep seed and the point's position — never on which
    worker runs it or in what order.
    """
    if index < 0:
        raise ConfigurationError(f"index must be >= 0, got {index}")
    return random.Random((seed << 24) ^ _SEED_MIX ^ index)


def sweep_generator(seed: int, index: int) -> np.random.Generator:
    """The numpy flavor of :func:`sweep_rng` (PCG64, keyed seed seq)."""
    if index < 0:
        raise ConfigurationError(f"index must be >= 0, got {index}")
    return np.random.default_rng((seed, _SEED_MIX, index))


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

    Travels inside :class:`KernelCall` contexts; ``array()`` in a
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
        segment.shm.close()
        try:
            segment.shm.unlink()
        except FileNotFoundError:
            pass


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
def _run_chunk(call: KernelCall, points: List[Any],
               collect_telemetry: bool):
    """Execute one chunk inside a worker process.

    Resolves the kernel through the per-process memo (warm caches
    across chunks), runs the points in order, and — when the parent
    had ambient telemetry — runs them under a fresh registry whose
    state returns with the results for an ordered merge.
    """
    fn = call.resolve()
    if not collect_telemetry:
        return [fn(point) for point in points], None
    telemetry = Telemetry()
    with activate(telemetry):
        results = [fn(point) for point in points]
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
        segment = _PUBLISHED.pop(name)
        segment.shm.close()
        try:
            segment.shm.unlink()
        except FileNotFoundError:
            pass


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
    invariant across ``REPRO_SWEEP_PROCESSES``.
    """
    if n_points <= 0:
        return []
    size = max(1, math.ceil(n_points / TARGET_CHUNKS))
    return [(start, min(start + size, n_points))
            for start in range(0, n_points, size)]


def run_process_sweep(call: KernelCall, points: Iterable[Any], *,
                      processes: Optional[int] = None) -> List[Any]:
    """Apply ``call`` to every point over the persistent process pool.

    Results return in input order; the lowest-indexed failing chunk's
    exception propagates; a dead worker raises a one-line
    :class:`SweepWorkerError`.  With ``processes`` ``None`` the pool
    size comes from ``$REPRO_SWEEP_PROCESSES`` (0 falls back to a
    single in-process pass through the same kernel).
    """
    items = list(points)
    if processes is None:
        processes = default_processes()
    if processes < 0:
        raise ConfigurationError(
            f"processes must be >= 0, got {processes}")
    if not items:
        return []
    if processes == 0:
        fn = call.resolve()
        return [fn(point) for point in items]

    telemetry = current_telemetry()
    collect = telemetry is not None
    pool = _pool(processes)
    bounds = chunk_bounds(len(items))
    futures: List[Future] = []
    try:
        for start, stop in bounds:
            futures.append(pool.submit(
                _run_chunk, call, items[start:stop], collect))
    except BrokenProcessPool:
        _discard_pool(processes)
        raise SweepWorkerError(
            f"sweep worker died (kernel {call.kernel!r}, "
            f"{len(items)} points, {processes} processes); rerun "
            f"with {PROCESSES_ENV}=0 to bisect") from None

    results: List[Any] = []
    try:
        for (start, stop), future in zip(bounds, futures):
            chunk_results, chunk_metrics = future.result()
            results.extend(chunk_results)
            if collect and chunk_metrics is not None:
                assert telemetry is not None
                telemetry.metrics.merge(chunk_metrics)
                telemetry.metrics.counter("telemetry.chunks").inc()
    except BrokenProcessPool:
        _discard_pool(processes)
        raise SweepWorkerError(
            f"sweep worker died mid-chunk (kernel "
            f"{call.kernel!r}, {len(items)} points, {processes} "
            f"processes); rerun with {PROCESSES_ENV}=0 to bisect"
            ) from None
    except Exception:
        for future in futures:
            future.cancel()
        raise
    return results
