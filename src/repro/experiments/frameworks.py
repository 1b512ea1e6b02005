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
from repro.core.estimator import (EstimateOrError, LiaEstimator,
                                  RequestTables)
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


#: Frameworks that estimate from one request list's shared term
#: tables (:class:`~repro.core.estimator.RequestTables`).
_TABLE_READERS = (LiaEstimator, IpexEstimator, FlexGenEstimator)


def estimate_frameworks(frameworks: Sequence[str], spec: ModelSpec,
                        system: SystemConfig,
                        requests: Sequence[InferenceRequest],
                        config: Optional[LiaConfig] = None
                        ) -> Dict[str, List[EstimateOrError]]:
    """Every framework's ``estimate_many(requests)`` entries.

    The frameworks that read Eqs. (4)-(9) term tables (LIA, IPEX,
    FlexGen) estimate from one prefill and one decode table, built
    once under ``config``: they differ from each other's only in the
    CPU engine's ``comp_cpu``, which each reader recomputes if it must.
    """
    config = config or EVAL_CONFIG
    estimators = {framework: build_estimator(framework, spec, system,
                                             config)
                  for framework in frameworks}
    tables: Optional[RequestTables] = None
    entries: Dict[str, List[EstimateOrError]] = {}
    for framework, estimator in estimators.items():
        if not requests or not isinstance(estimator, _TABLE_READERS):
            entries[framework] = estimator.estimate_many(requests)
            continue
        if tables is None:
            tables = RequestTables.build(spec, system, config, requests)
        entries[framework] = estimator.estimate_tables(tables)
    return entries


def estimates_or_oom(frameworks: Sequence[str], spec: ModelSpec,
                     system: SystemConfig,
                     requests: Sequence[InferenceRequest],
                     config: Optional[LiaConfig] = None
                     ) -> Dict[str, List]:
    """:func:`estimate_frameworks`, mapping each CapacityError to the
    OOM sentinel."""
    return {framework: [OOM if isinstance(entry, CapacityError)
                        else entry for entry in framework_entries]
            for framework, framework_entries in estimate_frameworks(
                frameworks, spec, system, requests, config).items()}


def estimate_or_oom(framework: str, spec: ModelSpec,
                    system: SystemConfig, request: InferenceRequest,
                    config: Optional[LiaConfig] = None):
    """Run one estimate, mapping CapacityError to the OOM sentinel:
    the one-point case of :func:`estimates_or_oom`."""
    return estimates_or_oom((framework,), spec, system, [request],
                            config)[framework][0]
