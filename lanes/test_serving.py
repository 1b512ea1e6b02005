"""Serving differentials at full size: the 300k-request capacity
search and every degraded preset at 2,000 requests."""

import numpy as np
import pytest

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import WorkloadVector, arrivals_poisson
from tests.oracles.differentials import (check_capacity_search,
                                         check_preset_parity,
                                         check_unfit_shape,
                                         degraded_presets)

REPLICAS = 4


@pytest.fixture(scope="module")
def estimator():
    return LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                        LiaConfig(enforce_host_capacity=False))


@pytest.mark.parametrize("seed", [0, 1])
def test_capacity_search_at_streaming_size(estimator, seed):
    """perfbench capacity-plan's mix, p95 by selection."""
    shapes = [InferenceRequest(*shape) for shape in
              ((1, 128, 16), (1, 256, 32), (1, 512, 32), (8, 256, 32))]
    n = 300_000
    check_capacity_search(estimator,
                          WorkloadVector.sample_mix(shapes, n, seed=seed),
                          np.asarray(arrivals_poisson(n, 1.6, seed=seed)),
                          60.0)


@pytest.mark.parametrize("name", sorted(degraded_presets(1.0)))
def test_degraded_preset_parity(estimator, name):
    check_preset_parity(estimator, name, 2000, 2.0, 11, REPLICAS)


def test_unfit_shape_refused_by_every_engine():
    check_unfit_shape(REPLICAS)
