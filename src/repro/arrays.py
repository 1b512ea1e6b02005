"""Scalar-or-array evaluation for the cost-model formulas.

``sublayer_cost``, ``Link.transfer_time`` and the roofline
``ComputeEngine.matmul_time`` each have one implementation that takes a
Python float (and returns one) or an ndarray (one entry per decode
step, say).  Their branches go through :func:`where`.
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np

#: A scalar or an ndarray of float64 values.
Real = Union[float, np.ndarray]


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
