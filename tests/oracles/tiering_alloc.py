"""Allocator-era reference for the §6 tiering plan.

:func:`~repro.cxl.tiering.plan_tiering` used to check its placement
with a general first-fit allocator over named DDR and CXL pools.  This
module keeps that plan as plain arithmetic: three first-fit
allocations in the allocator's order — the weights into the CXL pool,
then the KV cache and then the peak activations into DDR — each
refused when it exceeds what its pool has left.  Sizes come straight
from the model spec, and the baseline keeps all three in DDR, the
placement of ``LiaConfig()`` and ``EVAL_CONFIG``.  ``plan_tiering``
must agree with it bit for bit and raise exactly where it refuses
(``tests/cxl/test_tiering_differential.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest


def plan_tiering(spec: ModelSpec, request: InferenceRequest,
                 system: SystemConfig
                 ) -> Optional[Tuple[float, float, float]]:
    """``(ddr_bytes, cxl_bytes, ddr_bytes_without_cxl)`` of the
    first-fit plan, or ``None`` where an allocation is refused."""
    weights = float(spec.total_param_bytes)
    kv = float(spec.kv_cache_bytes(request.batch_size,
                                   request.input_len + request.output_len))
    activations = float(spec.peak_activation_bytes(request.batch_size,
                                                   request.input_len))
    ddr_capacity = system.cpu.memory.capacity_bytes
    cxl_capacity = system.cxl_pool.capacity_bytes
    # The allocator summed its live allocations from 0 in order.
    cxl_used = ddr_used = 0
    if weights > cxl_capacity - cxl_used:
        return None
    cxl_used += weights
    if kv > ddr_capacity - ddr_used:
        return None
    ddr_used += kv
    if activations > ddr_capacity - ddr_used:
        return None
    ddr_used += activations
    return ddr_used, cxl_used, weights + kv + activations
