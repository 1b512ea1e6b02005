"""Framework registry shared by the experiment drivers."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines import (
    DataOffloadEstimator,
    FlexGenEstimator,
    IpexEstimator,
    PowerInferEstimator,
    TensorParallelEstimator,
)
from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.experiments.reporting import OOM
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest

FRAMEWORKS: Dict[str, Callable] = {
    "lia": LiaEstimator,
    "ipex": IpexEstimator,
    "flexgen": FlexGenEstimator,
    "data-offload": DataOffloadEstimator,
    "powerinfer": PowerInferEstimator,
    "tensor-parallel": TensorParallelEstimator,
}

#: Configuration used throughout the evaluation section: the paper's
#: starred data points rely on the analytical latency model beyond the
#: 512 GB testbed, so host-capacity enforcement is off by default in
#: experiment drivers (each driver that studies capacity turns it
#: back on explicitly).
EVAL_CONFIG = LiaConfig(enforce_host_capacity=False)


def build_estimator(framework: str, spec: ModelSpec,
                    system: SystemConfig,
                    config: Optional[LiaConfig] = None):
    """Instantiate a framework estimator by name."""
    try:
        factory = FRAMEWORKS[framework]
    except KeyError:
        known = ", ".join(sorted(FRAMEWORKS))
        raise ConfigurationError(
            f"unknown framework {framework!r}; known: {known}") from None
    return factory(spec, system, config or EVAL_CONFIG)


def estimates_or_oom(framework: str, spec: ModelSpec,
                     system: SystemConfig,
                     requests: Sequence[InferenceRequest],
                     config: Optional[LiaConfig] = None) -> List:
    """Estimate every request with one ``estimate_many`` call, in
    order, mapping each CapacityError to the OOM sentinel."""
    estimator = build_estimator(framework, spec, system, config)
    return [OOM if isinstance(entry, CapacityError) else entry
            for entry in estimator.estimate_many(requests)]


def estimate_or_oom(framework: str, spec: ModelSpec,
                    system: SystemConfig, request: InferenceRequest,
                    config: Optional[LiaConfig] = None):
    """Run one estimate, mapping CapacityError to the OOM sentinel:
    the one-point case of :func:`estimates_or_oom`."""
    return estimates_or_oom(framework, spec, system, [request],
                            config)[0]
