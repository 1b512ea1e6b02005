"""§7.2's transfer accounting: LIA vs FlexGen PCIe bytes per token.

The paper attributes LIA's online-latency advantage to "significant
reduction of CPU-GPU data transfer … ranging from 31x to as much as
222,524x", and notes the relative reduction *shrinks* from OPT-30B to
OPT-175B (fewer GPU-resident layers leave more streamed traffic —
which in LIA's case is none, because streamed layers run on the CPU).

This driver sums the Eq. (4)-(9) transfer *bytes* per generated token
for both frameworks across the online and offline operating points.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.flexgen import FlexGenEstimator
from repro.core.estimator import LiaEstimator
from repro.core.latency import layer_latency
from repro.core.optimizer import optimal_policy
from repro.experiments.frameworks import EVAL_CONFIG
from repro.experiments.reporting import ExperimentResult
from repro.hardware.system import get_system
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


def _lia_decode_bytes_per_token(spec, system, request) -> float:
    """LIA's per-token decode transfer bytes, resident + streamed."""
    residency = LiaEstimator(spec, system,
                             EVAL_CONFIG).estimate(request).residency
    streamed, resident = (
        optimal_policy(spec, Stage.DECODE, request.batch_size,
                       request.input_len, system, EVAL_CONFIG,
                       weights_resident=weights_resident).layer
        for weights_resident in (False, True))
    n_resident = residency.n_resident_layers
    n_streamed = residency.n_layers - n_resident
    return (streamed.transfer_bytes * n_streamed
            + resident.transfer_bytes * n_resident)


def _flexgen_decode_bytes_per_token(spec, system, request) -> float:
    """FlexGen's per-token decode transfer bytes."""
    estimator = FlexGenEstimator(spec, system, EVAL_CONFIG)
    kv_resident = estimator.kv_fits_gpu(request)
    policy = estimator.decode_policy(request)
    from repro.core.gpu_residency import plan_sublayer_residency
    residency = plan_sublayer_residency(spec, system, request,
                                        estimator.config)
    layer = layer_latency(spec, Stage.DECODE, policy,
                          request.batch_size, request.input_len,
                          system, estimator.config,
                          resident_sublayers=residency.resident_sublayers,
                          kv_resident=kv_resident)
    return layer.transfer_bytes * spec.n_layers


def run(models: Sequence[str] = ("opt-30b", "opt-175b"),
        system_name: str = "spr-a100",
        batch_sizes: Sequence[int] = (1, 32, 64),
        input_len: int = 256, output_len: int = 32) -> ExperimentResult:
    """Per-token transfer volumes and the LIA-over-FlexGen reduction."""
    system = get_system(system_name)
    result = ExperimentResult(
        experiment_id="sec72",
        title=f"decode-stage PCIe bytes per token, LIA vs FlexGen "
              f"({system_name})")
    for model in models:
        spec = get_model(model)
        for batch_size in batch_sizes:
            request = InferenceRequest(batch_size, input_len, output_len)
            lia_bytes = _lia_decode_bytes_per_token(spec, system, request)
            flexgen_bytes = _flexgen_decode_bytes_per_token(spec, system,
                                                            request)
            reduction = (flexgen_bytes / lia_bytes if lia_bytes > 0
                         else float("inf"))
            result.add_row(model=model, batch_size=batch_size,
                           lia_mb_per_token=lia_bytes / 1e6,
                           flexgen_mb_per_token=flexgen_bytes / 1e6,
                           reduction=reduction)
    return result
