"""LIA core: the paper's primary contribution.

* :mod:`repro.core.policy` — the offload-policy vector p of §5.1.
* :mod:`repro.core.latency` — the Eq. (1)-(9) decoder-layer latency
  model, a per-sublayer view over the :mod:`repro.core.terms` table.
* :mod:`repro.core.optimizer` — exhaustive policy search (the
  "algorithm front-end", C1).
* :mod:`repro.core.gpu_residency` — Optimization-1 (layer-granular GPU
  weight residency).
* :mod:`repro.core.overlap` — Optimization-2 (compute/transfer
  overlap, Fig. 7), with a task-graph builder for the DES.
* :mod:`repro.core.estimator` — end-to-end latency/throughput
  estimation (the "execution back-end" analytic twin, C2).
* :mod:`repro.core.runtime` — the cooperative runtime driving the
  functional engine on simulated hardware.
"""

from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.policy import (
    FULL_CPU,
    FULL_GPU,
    PARTIAL_CPU,
    Device,
    OffloadPolicy,
)
from repro.core.latency import LayerLatency, SublayerLatency, layer_latency
from repro.core.optimizer import PolicyDecision, optimal_policy, policy_map
from repro.core.gpu_residency import ResidencyPlan, plan_layer_residency
from repro.core.overlap import overlapped_layer_time, build_stage_graph
from repro.core.estimator import InferenceEstimate, LiaEstimator
from repro.core.multi_gpu import MultiGpuLiaEstimator, expand_gpu_side
from repro.core.runtime import LiaRuntime

__all__ = [
    "KvCachePlacement",
    "LiaConfig",
    "WeightPlacement",
    "FULL_CPU",
    "FULL_GPU",
    "PARTIAL_CPU",
    "Device",
    "OffloadPolicy",
    "LayerLatency",
    "SublayerLatency",
    "layer_latency",
    "PolicyDecision",
    "optimal_policy",
    "policy_map",
    "ResidencyPlan",
    "plan_layer_residency",
    "overlapped_layer_time",
    "build_stage_graph",
    "InferenceEstimate",
    "LiaEstimator",
    "MultiGpuLiaEstimator",
    "expand_gpu_side",
    "LiaRuntime",
]
