"""Inference workload descriptions and generators.

The paper evaluates two scenarios (§7): online, latency-driven
inference at B = 1 and offline, throughput-driven inference at B = 64
and B = 900.  Input lengths follow the Azure LLM inference trace
statistics (Patel et al. 2024): approximately uniform input lengths up
to the model maximum, with output lengths of 32 (code traces) and 256
(conversation traces).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.arrays import at
from repro.errors import ConfigurationError
from repro.models.spec import ModelSpec


class TraceKind(enum.Enum):
    """Azure trace families with their average output lengths."""

    CODE = "code"
    CONVERSATION = "conversation"


#: Average output token lengths per trace family (§7).
TRACE_OUTPUT_LENGTH = {
    TraceKind.CODE: 32,
    TraceKind.CONVERSATION: 256,
}


@dataclass(frozen=True)
class InferenceRequest:
    """One inference job: a batch of prompts decoded to completion.

    ``input_len`` is :math:`L_{in}`, ``output_len`` is :math:`L_{out}`,
    and ``batch_size`` is :math:`B`.  All sequences in a batch share
    the same lengths, matching the paper's evaluation methodology.
    """

    batch_size: int
    input_len: int
    output_len: int

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.input_len < 1:
            raise ConfigurationError(
                f"input_len must be >= 1, got {self.input_len}")
        if self.output_len < 1:
            raise ConfigurationError(
                f"output_len must be >= 1, got {self.output_len}")

    @property
    def max_context_len(self) -> int:
        """Longest context reached while decoding the final token."""
        return self.input_len + self.output_len - 1

    @property
    def total_generated_tokens(self) -> int:
        """Output tokens produced across the batch (throughput basis)."""
        return self.batch_size * self.output_len

    def decode_context_lengths(self) -> np.ndarray:
        """Context length seen by each decoding step, as one array.

        The first decode step attends over the ``input_len`` prompt
        tokens plus the token emitted by prefill; the last attends over
        ``input_len + output_len - 1`` tokens.
        """
        return np.arange(self.input_len, self.input_len + self.output_len)

    def fits_model(self, spec: ModelSpec) -> bool:
        """Whether the total sequence fits the model's context window."""
        return self.input_len + self.output_len <= spec.max_seq_len


@dataclass(frozen=True)
class RequestPoints:
    """Many requests' ``(B, L_in, L_out)``: arrays (or ints) that
    broadcast together, one point per element.

    The float-or-array memory planners read it as they read an
    :class:`InferenceRequest`, and plan every point in one pass.
    Unlike a request, it is not validated on construction:
    :attr:`invalid` marks the points whose request would not build.
    """

    batch_size: Union[int, np.ndarray]
    input_len: Union[int, np.ndarray]
    output_len: Union[int, np.ndarray]

    @property
    def max_context_len(self) -> Union[int, np.ndarray]:
        """:attr:`InferenceRequest.max_context_len` of every point."""
        return self.input_len + self.output_len - 1

    @property
    def invalid(self) -> Union[bool, np.ndarray]:
        """Where :class:`InferenceRequest` rejects the point."""
        return ((np.asarray(self.batch_size) < 1)
                | (np.asarray(self.input_len) < 1)
                | (np.asarray(self.output_len) < 1))

    def at(self, index: Tuple[int, ...]) -> InferenceRequest:
        """The request at ``index``; raises the point's
        :class:`ConfigurationError` where it is :attr:`invalid`."""
        return InferenceRequest(at(self.batch_size, index),
                                at(self.input_len, index),
                                at(self.output_len, index))


def make_request(batch_size: int, input_len: int,
                 output_len: int) -> InferenceRequest:
    """Convenience constructor mirroring the paper's (B, L_in, L_out)
    notation."""
    return InferenceRequest(batch_size=batch_size, input_len=input_len,
                            output_len=output_len)


def max_input_len(spec: ModelSpec, output_len: int) -> int:
    """The ``L_max`` used in Figs. 10-12: the longest input such that
    input + output fits the context window (2016 for L_out=32 and 1792
    for L_out=256 on OPT models)."""
    return spec.max_seq_len - output_len


def paper_input_lengths(spec: ModelSpec, output_len: int) -> List[int]:
    """The input-length sweep used by Figs. 10-12: 32, 256, and L_max."""
    return [32, 256, max_input_len(spec, output_len)]


def sweep_requests(batch_sizes: Sequence[int], input_lens: Sequence[int],
                   output_lens: Sequence[int]) -> List[InferenceRequest]:
    """Cartesian sweep over (B, L_in, L_out), in deterministic order."""
    return [InferenceRequest(b, li, lo)
            for b in batch_sizes for li in input_lens for lo in output_lens]


def azure_trace_lengths(n_requests: int, spec: ModelSpec,
                        kind: TraceKind = TraceKind.CONVERSATION,
                        seed: int = 0,
                        min_input_len: int = 32) -> List[InferenceRequest]:
    """Sample single-request workloads following the Azure trace model.

    Input lengths are uniform over ``[min_input_len, max]`` (the paper
    notes the Azure input-length distribution is approximately
    uniform); output lengths are the trace family's average.
    """
    if n_requests < 1:
        raise ConfigurationError(
            f"n_requests must be >= 1, got {n_requests}")
    output_len = TRACE_OUTPUT_LENGTH[kind]
    upper = max_input_len(spec, output_len)
    if upper < min_input_len:
        raise ConfigurationError(
            f"model {spec.name} context window too small for "
            f"output_len={output_len}")
    rng = random.Random(seed)
    return [InferenceRequest(1, rng.randint(min_input_len, upper),
                             output_len)
            for _ in range(n_requests)]
