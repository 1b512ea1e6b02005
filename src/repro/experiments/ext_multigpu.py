"""Extension study: scaling LIA to multiple GPUs (§8).

§8 sketches how LIA extends beyond one GPU: tensor parallelism on the
GPU side scales both compute and aggregate CPU-GPU bandwidth, so GPUs
take work more often — but inter-GPU communication erodes the gains,
"especially when the GPUs are connected via PCIe interconnects".
This driver quantifies both statements.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.multi_gpu import MultiGpuLiaEstimator
from repro.core.optimizer import decode_policy_threshold
from repro.experiments.frameworks import EVAL_CONFIG
from repro.experiments.reporting import ExperimentResult
from repro.hardware.interconnect import get_link
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


def run(model: str = "opt-175b", system_name: str = "gnr-a100",
        gpu_counts: Sequence[int] = (1, 2, 4, 8),
        batch_size: int = 900, input_len: int = 256,
        output_len: int = 32) -> ExperimentResult:
    """Throughput scaling and policy shift vs GPU count and fabric."""
    spec = get_model(model)
    base = get_system(system_name)
    request = InferenceRequest(batch_size, input_len, output_len)
    result = ExperimentResult(
        experiment_id="ext-multigpu",
        title=f"multi-GPU LIA scaling, {model} on {system_name}, "
              f"B={batch_size}")
    baseline_tput = None
    for fabric in ("nvlink3", "pcie4"):
        peer = get_link(fabric)
        for n_gpus in gpu_counts:
            estimator = MultiGpuLiaEstimator(spec, base, n_gpus,
                                             EVAL_CONFIG,
                                             peer_link=peer)
            estimate = estimator.estimate(request)
            threshold = decode_policy_threshold(
                spec, estimator.system, EVAL_CONFIG)
            if baseline_tput is None:
                baseline_tput = estimate.throughput
            result.add_row(
                fabric=fabric, n_gpus=n_gpus,
                tokens_per_s=estimate.throughput,
                scaling=estimate.throughput / baseline_tput,
                decode_threshold_b=threshold,
                decode_policy=str(estimate.decode_policy))
    return result
