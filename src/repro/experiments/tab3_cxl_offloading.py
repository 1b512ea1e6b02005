"""Table 3: LIA with and without parameter offloading to CXL.

OPT-30B at B=900, L_in=32, L_out in {32, 64, 128, 256} on an
SPR-A100 with two interleaved CXL expanders.  Columns reproduced:

* throughput without CXL and with CXL at the same B (within ~1 %:
  two interleaved expanders keep the PCIe link saturated),
* the "Offloaded Percentage" of DDR usage moved to CXL (up to ~43 %),
* the larger batch B' affordable *under the same DDR footprint* when
  weights move to CXL (900 -> ~1.58K at L_out=32), and its throughput
  (up to ~1.45x).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.estimator import (LiaEstimator, MemoryUsage,
                                  host_memory_usage)
from repro.experiments.frameworks import EVAL_CONFIG
from repro.experiments.reporting import ExperimentResult
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


def _batch_matching_ddr_footprint(spec, system, config, target_ddr: float,
                                  input_len: int, output_len: int,
                                  hi: int = 1 << 14) -> int:
    """Largest B whose *DDR* usage under CXL tiering stays within
    ``target_ddr`` bytes (weights are in CXL and don't count)."""
    cxl_config = config.with_cxl_weights()

    def ddr_usage(batch_size: int) -> float:
        request = InferenceRequest(batch_size, input_len, output_len)
        return host_memory_usage(spec, request, system,
                                 cxl_config).ddr_bytes

    low, high = 1, hi
    if ddr_usage(high) <= target_ddr:
        return high
    while high - low > 1:
        mid = (low + high) // 2
        if ddr_usage(mid) <= target_ddr:
            low = mid
        else:
            high = mid
    return low


def _offloaded_fraction(with_cxl: MemoryUsage,
                        plain: MemoryUsage) -> float:
    """The share of DDR usage that CXL offloading removes: the
    "Offloaded Percentage" of Table 3 as a fraction (the formula of
    :attr:`~repro.cxl.tiering.CxlTieringPlan.ddr_savings_fraction`).
    It reads the estimates' own usage, so it needs no capacity check:
    the evaluation config estimates beyond the 512 GB testbed."""
    return 1.0 - with_cxl.ddr_bytes / plain.ddr_bytes


def run(model: str = "opt-30b", system_name: str = "spr-a100",
        batch_size: int = 900, input_len: int = 32,
        output_lens: Sequence[int] = (32, 64, 128, 256)
        ) -> ExperimentResult:
    """The Table 3 rows."""
    spec = get_model(model)
    base_system = get_system(system_name)
    cxl_system = base_system.with_cxl(n_expanders=2)
    config = EVAL_CONFIG
    result = ExperimentResult(
        experiment_id="tab3",
        title=f"CXL parameter offloading, {model}, B={batch_size}")
    for output_len in output_lens:
        request = InferenceRequest(batch_size, input_len, output_len)
        plain = LiaEstimator(spec, base_system, config).estimate(request)
        with_cxl = LiaEstimator(
            spec, cxl_system,
            config.with_cxl_weights()).estimate(request)

        bigger_b = _batch_matching_ddr_footprint(
            spec, cxl_system, config, plain.memory.ddr_bytes,
            input_len, output_len)
        bigger_request = InferenceRequest(bigger_b, input_len, output_len)
        bigger = LiaEstimator(
            spec, cxl_system,
            config.with_cxl_weights()).estimate(bigger_request)
        bigger_plain = host_memory_usage(spec, bigger_request, base_system,
                                         config)
        result.add_row(
            output_len=output_len,
            tokens_per_s=plain.throughput,
            tokens_per_s_cxl=with_cxl.throughput,
            offloaded_pct=_offloaded_fraction(
                with_cxl.memory, plain.memory) * 100.0,
            increased_batch=bigger_b,
            tokens_per_s_cxl_bigger_b=bigger.throughput,
            offloaded_pct_bigger_b=_offloaded_fraction(
                bigger.memory, bigger_plain) * 100.0,
        )
    return result
