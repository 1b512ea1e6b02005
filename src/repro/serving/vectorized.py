"""Columnar workloads and the exact Lindley-recursion kernel.

The FIFO recurrence a per-request serving loop walks,

.. math::

    f_i = \\max(a_i, f_{i-1}) + s_i,

is a Lindley recursion: subtracting the service-time prefix sum
``S_i = s_0 + ... + s_i`` turns it into a running maximum,

.. math::

    f_i = S_i + \\max_{j \\le i} (a_j - S_{j-1}),

so the whole timeline is one ``np.maximum.accumulate`` over
``arrivals - shifted_cumsum(services)`` — no Python loop.

**Bit-identity is the contract**, and the algebraic form above does
not honor it by itself: float addition is not associative, so
``S_i + (a_j - S_{j-1})`` can differ from the loop's left-to-right
sum in the last ulp.  :func:`lindley_timeline` therefore uses the
algebraic pass only to *locate busy periods* (maximal runs of
back-to-back requests), then replays each busy period with
``np.add.accumulate`` — a strictly sequential left fold in numpy, so
every addition happens in exactly the order the loop performs it —
and verifies the busy-period boundaries against the exact finishes,
refining until they reach a fixed point.  At the fixed point the
result provably equals the loop's output bit for bit (induction over
requests: every branch decision and every float op matches).

Beside the kernel lives :class:`WorkloadVector`, a columnar workload
(unique request shapes + an int code per arrival) so million-request
runs never materialize a million ``InferenceRequest`` objects.  The
serving engine built on both is :mod:`repro.serving.piecewise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest

#: Busy periods longer than this use one ``np.add.accumulate`` each;
#: shorter ones are replayed position-by-position, vectorized across
#: all short periods at once, unless there are fewer short periods
#: than the longest one is long (then every period is one scan).
#: sqrt-ish split: Python-level call count is bounded by
#: ``_LONG_SEGMENT + n / _LONG_SEGMENT``.
_LONG_SEGMENT = 64

#: Boundary refinements before falling back to the exact Python loop.
#: Each refinement strictly extends the provably-correct prefix, and
#: in practice the first algebraic guess is already the fixed point.
_MAX_REFINEMENTS = 60


# ----------------------------------------------------------------------
# Columnar workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class WorkloadVector:
    """A request stream as unique shapes plus one int code per arrival.

    A per-request loop's cost is dominated by touching a million
    Python objects; a columnar workload keeps the shapes
    (rarely more than a handful) as real :class:`InferenceRequest`
    objects and the stream as a numpy int array.
    """

    shapes: Tuple[InferenceRequest, ...]
    codes: np.ndarray

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ConfigurationError(
                "workload needs at least one request shape")
        if len(set(self.shapes)) != len(self.shapes):
            raise ConfigurationError(
                "workload shapes must be distinct")
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 1:
            raise ConfigurationError(
                f"codes must be a flat array, got {codes.ndim} "
                "dimensions")
        if codes.size and (int(codes.min()) < 0
                           or int(codes.max()) >= len(self.shapes)):
            raise ConfigurationError(
                f"codes must index into {len(self.shapes)} shapes")

    # ------------------------------------------------------------------
    @classmethod
    def from_requests(cls, requests: Sequence[InferenceRequest]
                      ) -> "WorkloadVector":
        """Encode a request list; shapes keep first-occurrence order."""
        order: dict = {}
        codes = np.fromiter(
            (order.setdefault(request, len(order))
             for request in requests),
            dtype=np.int64, count=len(requests))
        if not order:
            raise ConfigurationError(
                "workload needs at least one request")
        return cls(shapes=tuple(order), codes=codes)

    @classmethod
    def sample_mix(cls, shapes: Sequence[InferenceRequest],
                   n_requests: int, seed: int = 0,
                   weights: Optional[Sequence[float]] = None
                   ) -> "WorkloadVector":
        """A seeded i.i.d. mix of ``shapes`` (optionally weighted)."""
        if n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {n_requests}")
        probabilities = None
        if weights is not None:
            if len(weights) != len(shapes):
                raise ConfigurationError(
                    "weights and shapes must have equal length")
            total = float(sum(weights))
            if total <= 0.0 or any(w < 0.0 for w in weights):
                raise ConfigurationError(
                    "weights must be non-negative with a positive sum")
            probabilities = [w / total for w in weights]
        rng = np.random.default_rng(seed)
        codes = rng.choice(len(shapes), size=n_requests,
                           p=probabilities)
        return cls(shapes=tuple(shapes),
                   codes=codes.astype(np.int64))

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return int(self.codes.size)

    def __len__(self) -> int:
        return self.n_requests

    def counts(self) -> np.ndarray:
        """Arrivals per shape, aligned with ``shapes``.

        Cached: the workload is immutable, and replaying one workload
        across reports re-asks for the same histogram every run.
        """
        cached = self.__dict__.get("_counts")
        if cached is None:
            cached = np.bincount(self.codes, minlength=len(self.shapes))
            object.__setattr__(self, "_counts", cached)
        return cached

    @property
    def total_generated_tokens(self) -> int:
        cached = self.__dict__.get("_total_generated_tokens")
        if cached is None:
            tokens = np.array([shape.total_generated_tokens
                               for shape in self.shapes], dtype=np.int64)
            cached = int(self.counts() @ tokens)
            object.__setattr__(self, "_total_generated_tokens", cached)
        return cached

    def tokens_per_request(self) -> np.ndarray:
        """Generated tokens per request, in arrival order.

        Cached like :meth:`counts` — the gather is O(n) and every
        windowed-metrics pass over the same workload needs it.
        """
        cached = self.__dict__.get("_tokens_per_request")
        if cached is None:
            tokens = np.array([shape.total_generated_tokens
                               for shape in self.shapes],
                              dtype=np.float64)
            cached = np.take(tokens, self.codes)
            object.__setattr__(self, "_tokens_per_request", cached)
        return cached

    def subset(self, indices: Union[np.ndarray, slice]
               ) -> "WorkloadVector":
        """The sub-stream at ``indices`` (shared shape table); a
        slice gives a view of the codes, not a copy.

        Codes taken from a checked workload index its shapes, so only
        the result's shape is checked: the range check's two passes
        over the codes would read a strided view line by line.
        """
        codes = self.codes[indices]
        if codes.ndim != 1:
            raise ConfigurationError(
                f"codes must be a flat array, got {codes.ndim} "
                "dimensions")
        sub = object.__new__(WorkloadVector)
        object.__setattr__(sub, "shapes", self.shapes)
        object.__setattr__(sub, "codes", codes)
        return sub

    def to_requests(self) -> List[InferenceRequest]:
        """Materialize the classic request list (O(n) objects)."""
        shapes = self.shapes
        return [shapes[code] for code in self.codes.tolist()]


# ----------------------------------------------------------------------
# The exact vectorized Lindley recursion
# ----------------------------------------------------------------------
def _exact_finishes(arrivals: np.ndarray, services: np.ndarray,
                    boundaries: np.ndarray,
                    out: np.ndarray,
                    penalties: Optional[np.ndarray] = None
                    ) -> np.ndarray:
    """Finish times given busy-period ``boundaries``, replaying the
    loop's exact float-op order within every busy period.  Returns
    the busy-period start indices (the caller reuses them).

    With ``penalties`` the per-request finish is the *two*-addition
    fold ``(f + s_i) + p_i`` — a faulted request's
    ``start + latency + penalty`` — so every replay mode below
    performs two adds per request in the loop's exact order.
    """
    n = arrivals.size
    segment_starts = np.flatnonzero(boundaries)
    lengths = np.diff(np.append(segment_starts, n))
    long_mask = lengths > _LONG_SEGMENT
    short_count = segment_starts.size - int(np.count_nonzero(long_mask))
    if short_count and short_count < int(lengths[~long_mask].max()):
        # Fewer short periods than lockstep steps (one busy period of
        # a saturated queue, say): a scan per period is fewer numpy
        # calls than stepping through the longest one.
        long_mask[:] = True
    if penalties is None and long_mask.any():
        # Every later position of a long period folds in place from
        # its service time; one bulk copy seeds them all.
        np.copyto(out, services)
    # At a busy-period start the loop does one add: a_j + s_j
    # (then + p_j when penalties ride along).
    out[segment_starts] = (arrivals[segment_starts]
                           + services[segment_starts])
    if penalties is not None:
        out[segment_starts] += penalties[segment_starts]
    # Short busy periods advance in lockstep: step k extends every
    # period longer than k by one request, f_i = f_{i-1} + s_i.
    # Sorting by length makes the step-k active set a suffix (one
    # searchsorted + slice per step, no boolean compaction), and the
    # running finish values stay in a contiguous buffer so each step
    # gathers only the service column.
    short_lengths = lengths[~long_mask]
    # Stable sort, in the smallest dtype that holds a short length
    # (uint8): numpy radix-sorts 8- and 16-bit keys but timsorts int64,
    # ~10x slower at 150k lengths.  A stable order is unique, so the
    # dtype cannot change it.
    order = np.argsort(
        short_lengths.astype(np.min_scalar_type(_LONG_SEGMENT)),
        kind="stable")
    short_starts = segment_starts[~long_mask][order]
    short_lengths = short_lengths[order]
    running = out[short_starts]
    cut = 0
    for step in range(1, int(short_lengths[-1]) if short_lengths.size
                      else 0):
        new_cut = int(np.searchsorted(short_lengths, step,
                                      side="right"))
        if new_cut != cut:
            running = running[new_cut - cut:]
            short_starts = short_starts[new_cut - cut:]
            cut = new_cut
        index = short_starts + step
        np.add(running, services[index], out=running)
        if penalties is not None:
            np.add(running, penalties[index], out=running)
        out[index] = running
    # Long busy periods are one sequential scan each: numpy's
    # ``add.accumulate`` folds left-to-right, matching the loop.
    # With penalties the fold interleaves (s_1, p_1, s_2, p_2, ...)
    # into one buffer whose accumulate performs both adds per
    # request in order; finishes are the odd positions.
    for start, length in zip(segment_starts[long_mask].tolist(),
                             lengths[long_mask].tolist()):
        end = start + length
        if penalties is None:
            period = out[start:end]
            np.add.accumulate(period, out=period)
            continue
        buffer = np.empty(2 * length)
        buffer[0] = arrivals[start] + services[start]
        buffer[1::2] = penalties[start:end]
        buffer[2::2] = services[start + 1:end]
        np.add.accumulate(buffer, out=buffer)
        out[start:end] = buffer[1::2]
    return segment_starts


def lindley_timeline(arrivals: ArrayLike, services: ArrayLike,
                     penalties: Optional[ArrayLike] = None,
                     free_at: float = 0.0
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, finishes) of the FIFO timeline, bit-identical to the
    request loop ``start = max(arrival, free_at); finish = start + s``.

    The algebraic Lindley pass (cumsum + running max) locates the
    busy periods; each is then replayed with the loop's exact op
    order, and the boundaries are verified against the exact finishes
    until they are a fixed point (almost always immediately).

    ``penalties`` adds a second per-request addition after the
    service add — a faulted request's ``(start + latency) + penalty``
    — keeping the two-operation float order intact.  ``free_at``
    carries the queue backlog from a previous piecewise segment: the
    first start is clamped to it, exactly as the loop's running
    ``free_at`` would.  Only the first arrival needs the clamp —
    every later ``f_{i-1}`` already incorporates it.
    """
    a = np.asarray(arrivals, dtype=np.float64)
    s = np.asarray(services, dtype=np.float64)
    if a.shape != s.shape or a.ndim != 1:
        raise ConfigurationError(
            "arrivals and services must be equal-length flat arrays")
    p: Optional[np.ndarray] = None
    if penalties is not None:
        p = np.asarray(penalties, dtype=np.float64)
        if p.shape != a.shape:
            raise ConfigurationError(
                "penalties must match arrivals in length")
    n = a.size
    if n == 0:
        return np.empty(0), np.empty(0)
    # The loop clamps the first start to its running free_at (0.0 on
    # a fresh queue).
    if a[0] < free_at:
        a = a.copy()
        a[0] = free_at
    effective = s if p is None else s + p
    cumulative = np.add.accumulate(effective)
    # slack_i = a_i - S_{i-1}; its running max plus S_i is the
    # algebraic finish estimate.  The boundary guess
    # ``a_{i+1} >= S_i + runmax_i`` is evaluated in slack space as
    # ``slack_{i+1} >= runmax_i`` — one subtraction per element less,
    # and any rounding disagreement with the exact form only perturbs
    # the *guess*, which the fixed-point verification repairs.
    slack = np.empty(n)
    slack[0] = a[0]
    np.subtract(a[1:], cumulative[:-1], out=slack[1:])
    running_max = np.maximum.accumulate(slack)
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    np.greater_equal(slack[1:], running_max[:-1], out=boundaries[1:])
    finishes = np.empty(n)
    for __ in range(_MAX_REFINEMENTS):
        segment_starts = _exact_finishes(a, s, boundaries, out=finishes,
                                         penalties=p)
        check = np.empty(n, dtype=bool)
        check[0] = True
        np.greater_equal(a[1:], finishes[:-1], out=check[1:])
        if np.array_equal(check, boundaries):
            starts = np.empty(n)
            starts[0] = a[0]
            starts[1:] = finishes[:-1]
            starts[segment_starts] = a[segment_starts]
            return starts, finishes
        boundaries = check
    # Pathological rounding fence-sitting: replay the exact loop.
    starts = np.empty(n)
    arrival_list = a.tolist()
    service_list = s.tolist()
    penalty_list = p.tolist() if p is not None else None
    busy_until = free_at
    for i in range(n):
        start = (arrival_list[i] if arrival_list[i] >= busy_until
                 else busy_until)
        finish = start + service_list[i]
        if penalty_list is not None:
            finish = finish + penalty_list[i]
        busy_until = finish
        starts[i] = start
        finishes[i] = finish
    return starts, finishes
