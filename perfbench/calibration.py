"""Host-speed calibration.

The benchmark host is a shared VM whose speed drifts: the same cold
call takes up to 1.75x longer for seconds to minutes at a time, with
every vCPU slowed alike.  A fixed kernel, timed at regular intervals
while the calls run, tracks that drift.  The run's host factor is the
kernel's mean time over the run (slowest and fastest tenth dropped)
divided by :data:`REFERENCE_S`, its time on the reference host in its
fast state; rates multiplied by the factor read as on that host.

The kernel is frozen here, not imported from the program, so a change
to the program cannot move it.  It resembles the estimator's inner
loop: small objects with attribute access, float arithmetic in Python
function calls, ``min``/``max`` and a dict memo.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import time
from typing import Dict, Iterator, List, Tuple

#: Kernel time on the reference host (2-vCPU x86-64 VM, Python 3.11)
#: in its fast state; only the scale of normalized values depends on it.
REFERENCE_S = 0.005
#: Seconds between samples taken while a :class:`Sampler` is armed.
INTERVAL_S = 0.5


class _Part:
    __slots__ = ("flops", "nbytes", "bandwidth", "peak")

    def __init__(self, flops: float, nbytes: float, bandwidth: float,
                 peak: float) -> None:
        self.flops = flops
        self.nbytes = nbytes
        self.bandwidth = bandwidth
        self.peak = peak


def _part_time(part: _Part, batch: int, length: int) -> float:
    compute = part.flops * batch * length / part.peak
    memory = part.nbytes / part.bandwidth + 1e-9 * batch * length
    return max(compute, memory)


_PARTS = tuple(_Part(1e9 * (i + 1), 2e8 * (i % 7 + 1), 1e11, 3e13)
               for i in range(8))


def kernel() -> float:
    """One fixed unit of work; returns a checksum."""
    memo: Dict[Tuple[int, int, int], float] = {}
    total = 0.0
    for batch in (1, 16, 256):
        for length in range(32, 2048, 24):
            best = math.inf
            for split in range(4):
                cost = sum(_part_time(part, batch, length)
                           for part in _PARTS) * (1.0 + 0.01 * split)
                memo[(batch, length, split)] = cost
                best = min(best, cost)
            total += best
    return total + len(memo)


def sample() -> float:
    """Seconds one :func:`kernel` call takes now.  The collector is
    off meanwhile: a collection triggered here would walk the
    program's heap and time that instead."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_factor(samples: List[float]) -> float:
    """How much slower than the reference host the samples' host was:
    their mean time, without the slowest and fastest tenth, over
    :data:`REFERENCE_S`."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept) / REFERENCE_S


class Sampler:
    """Calibration samples taken every :data:`INTERVAL_S` seconds
    while armed, from a ``SIGALRM`` handler, so that they cover the
    run evenly in time, long calls included.

    ``spent_s`` is the time the handler has taken; a timed region
    subtracts what it grew by inside the region.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        kernel()  # warm-up: the first call reads slow
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """No sample inside the block; the timer resumes afterwards."""
        remaining, interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, remaining or interval,
                                 interval)
