"""repro — a full reproduction of *LIA: A Single-GPU LLM Inference
Acceleration with Cooperative AMX-Enabled CPU-GPU Computation and CXL
Offloading* (Kim et al., ISCA 2025).

Quick start::

    from repro import LiaRuntime, get_model, get_system, make_request

    runtime = LiaRuntime(get_model("opt-175b"), get_system("spr-h100"))
    plan = runtime.plan(make_request(batch_size=1, input_len=256,
                                     output_len=32))
    print(plan.prefill_policy, plan.decode_policy)
    print(f"{plan.estimate.latency:.2f} s/query")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    FULL_CPU,
    FULL_GPU,
    PARTIAL_CPU,
    InferenceEstimate,
    LiaConfig,
    LiaEstimator,
    LiaRuntime,
    OffloadPolicy,
    layer_latency,
    optimal_policy,
    policy_map,
)
from repro.hardware import get_cpu, get_gpu, get_link, get_system
from repro.models import (
    Stage,
    Sublayer,
    get_model,
    make_request,
)
from repro.telemetry import Telemetry, activate

__version__ = "1.0.0"

__all__ = [
    "FULL_CPU",
    "FULL_GPU",
    "PARTIAL_CPU",
    "InferenceEstimate",
    "LiaConfig",
    "LiaEstimator",
    "LiaRuntime",
    "OffloadPolicy",
    "layer_latency",
    "optimal_policy",
    "policy_map",
    "get_cpu",
    "get_gpu",
    "get_link",
    "get_system",
    "Stage",
    "Sublayer",
    "get_model",
    "make_request",
    "Telemetry",
    "activate",
    "__version__",
]
