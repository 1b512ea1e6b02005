"""Offline batch packing under host-memory constraints.

Groups single-sequence requests into batches that (a) share padded
lengths — every sequence in a batch runs at the batch's longest input
and output length, as in the paper's methodology — and (b) fit the
host memory of the target system under the configured DDR/CXL
placement.  Length-sorting first keeps padding waste low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import LiaConfig
from repro.core.estimator import check_host_capacity, host_memory_usage
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest


@dataclass(frozen=True)
class Batch:
    """One packed batch: the padded request plus its member count."""

    request: InferenceRequest
    n_members: int
    #: Fraction of prompt tokens that are real (not padding).
    prompt_efficiency: float


def _fits(spec: ModelSpec, system: SystemConfig, config: LiaConfig,
          request: InferenceRequest) -> bool:
    try:
        check_host_capacity(
            host_memory_usage(spec, request, system, config), system)
    except CapacityError:
        return False
    return True


def pack_requests(requests: Sequence[InferenceRequest],
                  spec: ModelSpec, system: SystemConfig,
                  config: LiaConfig, max_batch: int = 4096) -> List[Batch]:
    """Pack single-sequence requests into feasible padded batches.

    Every input must have ``batch_size == 1``.  Requests are sorted by
    total length and packed greedily; a batch closes when adding the
    next request would overflow host memory (at the batch's padded
    lengths) or exceed ``max_batch``.
    """
    if not requests:
        raise ConfigurationError("no requests to pack")
    if any(r.batch_size != 1 for r in requests):
        raise ConfigurationError(
            "pack_requests expects single-sequence requests (B=1)")
    if max_batch < 1:
        raise ConfigurationError(f"max_batch must be >= 1: {max_batch}")

    ordered = sorted(requests,
                     key=lambda r: (r.input_len + r.output_len,
                                    r.input_len))
    batches: List[Batch] = []
    members: List[InferenceRequest] = []

    def padded(members_list: List[InferenceRequest]) -> InferenceRequest:
        return InferenceRequest(
            batch_size=len(members_list),
            input_len=max(r.input_len for r in members_list),
            output_len=max(r.output_len for r in members_list))

    def close() -> None:
        request = padded(members)
        real = sum(r.input_len for r in members)
        batches.append(Batch(
            request=request,
            n_members=len(members),
            prompt_efficiency=real / (request.batch_size
                                      * request.input_len)))
        members.clear()

    for request in ordered:
        candidate = members + [request]
        if (len(candidate) > max_batch
                or not _fits(spec, system, config, padded(candidate))):
            if not members:
                raise CapacityError(
                    f"request (L_in={request.input_len}, "
                    f"L_out={request.output_len}) does not fit "
                    f"{system.name} even alone")
            close()
        members.append(request)
    if members:
        close()
    return batches

