import random

import numpy as np

from repro.arrays import _FOLD_BLOCK, left_fold


def _loop(start, values):
    total = start
    for value in values:
        total += value
    return total


def test_left_fold_equals_the_scalar_loop_across_blocks():
    rng = random.Random(7)
    values = np.array([rng.lognormvariate(0.0, 4.0)
                       for __ in range(2 * _FOLD_BLOCK + 3)])
    kept = values.copy()
    expected = _loop(0.1, values.tolist())
    assert left_fold(0.1, values) == expected
    assert np.array_equal(values, kept)  # the input is not touched
    # ``out`` holds every running total; ``values`` itself may be it.
    running = np.empty(values.size)
    assert left_fold(0.1, values, out=running) == expected
    assert running[-1] == expected
    assert running[_FOLD_BLOCK] == _loop(0.1, values[:_FOLD_BLOCK + 1])
    assert left_fold(0.1, values, out=values) == expected
    assert left_fold(2.5, []) == 2.5
