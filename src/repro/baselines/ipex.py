"""IPEX baseline: CPU-only inference with AMX (§7's first baseline).

Intel Extension for PyTorch runs the whole model on the Xeon: every
sublayer computes with AMX against DDR-resident weights, there are no
PCIe transfers, and the GPU sits idle.  Implemented as the LIA
estimator pinned to the full-CPU policy with both optimizations off
(there is nothing to overlap and no GPU memory to pack).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.config import LiaConfig
from repro.core.estimator import (EstimateOrError, InferenceEstimate,
                                  LiaEstimator, RequestTables,
                                  estimate_from_tables, only_estimate)
from repro.core.policy import FULL_CPU
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest


class IpexEstimator:
    """Analytic model of CPU-only (IPEX) inference."""

    framework_name = "ipex"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None) -> None:
        base = config or LiaConfig()
        self.config = replace(
            base,
            gpu_residency=False,
            overlap=False,
            cpu_engine="amx" if "amx" in system.cpu.engines else
            next(iter(sorted(system.cpu.engines))),
            forced_prefill_policy=FULL_CPU,
            forced_decode_policy=FULL_CPU,
        )
        self._inner = LiaEstimator(spec, system, self.config)
        # The inner estimator labels its estimates as IPEX's.
        self._inner.framework_name = self.framework_name
        self.spec = spec
        self.system = system

    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """CPU-only end-to-end estimate: the one-point case of
        :meth:`estimate_many`."""
        return only_estimate(self.estimate_many([request]))

    def estimate_many(self, requests: Sequence[InferenceRequest]
                      ) -> List[EstimateOrError]:
        """CPU-only estimates of every request, in order, from one
        prefill and one decode term table (:meth:`estimate_tables`)."""
        return estimate_from_tables(self, requests)

    def estimate_tables(self, tables: RequestTables
                        ) -> List[EstimateOrError]:
        """CPU-only estimates of the requests of ``tables``: the inner
        LIA estimator's, which reads the same tables."""
        return self._inner.estimate_tables(tables)
