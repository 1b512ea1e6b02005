"""CXL memory offloading (§6).

* :mod:`repro.cxl.bandwidth` — the Fig. 8 characterization: CXL-GPU
  transfer bandwidth vs. data size and interleaving width
  (Observation-1), and AMX throughput degradation when operands live
  in CXL (Observation-2).
* :mod:`repro.cxl.tiering` — the memory-offloading policy: all
  parameters in CXL, KV cache and activations in DDR, fit-checked by
  :func:`~repro.core.estimator.check_host_capacity`; DDR savings and
  the larger feasible batch sizes of Table 3.
* :mod:`repro.cxl.residency` — per-request KV-cache residency
  accounting across GPU HBM / DDR / CXL for the continuous-batching
  scheduler: waterfall placement, demote-oldest under HBM pressure,
  capacity/conservation invariants.
"""

from repro.cxl.bandwidth import (
    cpu_throughput_degradation,
    transfer_bandwidth_series,
)
from repro.cxl.residency import (
    KV_TIERS,
    KvResidency,
    KvTierCapacities,
    kv_capacities_from_system,
)
from repro.cxl.tiering import (
    CxlTieringPlan,
    adaptive_config,
    plan_tiering,
)

__all__ = [
    "cpu_throughput_degradation",
    "transfer_bandwidth_series",
    "CxlTieringPlan",
    "adaptive_config",
    "plan_tiering",
    "KV_TIERS",
    "KvResidency",
    "KvTierCapacities",
    "kv_capacities_from_system",
]
