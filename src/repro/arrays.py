"""Scalar-or-array evaluation for the cost-model formulas.

``Link.transfer_time`` and the roofline ``ComputeEngine.matmul_time``
each have one implementation that takes a Python float (and returns
one) or an ndarray — a whole ``(..., 6)`` sublayer table of
:func:`~repro.models.sublayers.sublayer_costs`, say.  Their branches go
through :func:`where`.  The memory planners of
:mod:`repro.core.gpu_residency` and :mod:`repro.core.estimator` work
the same way over many requests' shapes, and :func:`first_index` /
:func:`at` pick out the first point where a plan fails.
:func:`left_fold` is the one sequential sum
that the serving reports, the engines and the telemetry histograms
fold their floats with.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

import numpy as np

#: A scalar or an ndarray of float64 values.
Real = Union[float, np.ndarray]

#: Block length of :func:`left_fold`'s scratch buffer.
_FOLD_BLOCK = 1 << 14


def where(condition: Any, if_true: Any, if_false: Any) -> Any:
    """``if_true if condition else if_false``, elementwise on arrays."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def maximum(a: Any, b: Any) -> Any:
    """``max(a, b)`` elementwise (ties keep ``a``, as ``max`` does)."""
    return where(b > a, b, a)


def minimum(a: Any, b: Any) -> Any:
    """``min(a, b)`` elementwise (ties keep ``a``, as ``min`` does)."""
    return where(b < a, b, a)


def everywhere(condition: Any) -> Any:
    """``condition``, or plain ``True`` when an array of it holds at
    every element, so :func:`where` can skip the elementwise select."""
    if isinstance(condition, np.ndarray) and condition.all():
        return True
    return condition


def expand_to(values: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``values`` broadcast to ``shape`` (itself when it has it)."""
    if values.shape == shape:
        return values
    return np.broadcast_to(values, shape)


def as_float(value: Any) -> Any:
    """``float(value)``, elementwise on arrays."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    return float(value)


def as_int(value: Any) -> Any:
    """``int(value)`` (truncation), elementwise on arrays."""
    if isinstance(value, np.ndarray):
        return value.astype(np.int64)
    return int(value)


def first_index(condition: Any) -> Optional[Tuple[int, ...]]:
    """The first index (row-major) where ``condition`` holds: ``()``
    for a true scalar, ``None`` where it holds nowhere."""
    if isinstance(condition, np.ndarray):
        if not condition.any():
            return None
        return tuple(int(i) for i in np.unravel_index(
            int(np.argmax(condition)), condition.shape))
    return () if condition else None


def at(value: Any, index: Tuple[int, ...]) -> Any:
    """The element of ``value`` at ``index`` as a Python scalar, with
    ``value`` broadcast to the indexed shape (a scalar is itself)."""
    if isinstance(value, np.ndarray):
        return value[tuple(i if n > 1 else 0 for i, n in zip(
            index[len(index) - value.ndim:], value.shape))].item()
    return value


def lowest(value: Any) -> Any:
    """The smallest element (``inf`` if empty), for range checks."""
    if isinstance(value, np.ndarray):
        return value.min().item() if value.size else float("inf")
    return value


def square_root(value: Any) -> Any:
    """``value ** 0.5`` through C ``pow`` for arrays too: numpy's ``**``
    uses ``sqrt``, which rounds differently in the last place."""
    if isinstance(value, np.ndarray):
        return np.float_power(value, 0.5)
    return value ** 0.5


def left_fold(start: float, values: Any,
              out: Optional[np.ndarray] = None) -> float:
    """``((start + v0) + v1) + ...`` in index order.

    ``np.add.accumulate`` is a strictly sequential scan, unlike
    ``np.sum`` (pairwise) or Python 3.12's compensated ``sum``, so the
    total equals the ``+=`` chain of a scalar loop bit for bit.
    Without ``out``, ``values`` is neither copied whole nor modified:
    the fold runs block by block through a small scratch buffer.  Given
    ``out`` (``len(values)`` floats, which may be ``values`` itself),
    the fold runs there in one block and leaves every running total in
    it.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    total = float(start)
    if not flat.size:
        return total
    buffer = np.empty(min(flat.size, _FOLD_BLOCK)) if out is None else out
    for lo in range(0, flat.size, buffer.size):
        block = buffer[:min(buffer.size, flat.size - lo)]
        block[:] = flat[lo:lo + block.size]
        block[0] += total  # == total + v0: addition commutes exactly
        total = float(np.add.accumulate(block, out=block)[-1])
    return total
