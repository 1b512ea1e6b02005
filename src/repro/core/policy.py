"""Offload-policy vectors (§5.1).

A policy is a vector :math:`p = (p_1, ..., p_6)` over the six decoder
sublayers, where :math:`p_i = 1` places sublayer *i* on the **CPU**
and :math:`p_i = 0` on the **GPU** — the paper's convention, visible
in its named policies (Partial CPU Offloading = (0,1,1,0,0,0) puts the
attention-scoring sublayers on the CPU).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import PolicyError
from repro.models.sublayers import NUM_SUBLAYERS, Sublayer


class Device(enum.Enum):
    """Where a sublayer executes."""

    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class OffloadPolicy:
    """An immutable 6-element offload vector.

    ``bits[i - 1]`` is :math:`p_i`: 1 for CPU, 0 for GPU.
    """

    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != NUM_SUBLAYERS:
            raise PolicyError(
                f"policy needs {NUM_SUBLAYERS} elements, got "
                f"{len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise PolicyError(f"policy bits must be 0/1, got {self.bits}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "OffloadPolicy":
        """Parse e.g. ``"011000"`` (p_1 ... p_6)."""
        stripped = text.replace(",", "").replace(" ", "")
        if len(stripped) != NUM_SUBLAYERS or set(stripped) - {"0", "1"}:
            raise PolicyError(f"cannot parse policy string {text!r}")
        return cls(tuple(int(c) for c in stripped))

    @classmethod
    def all_policies(cls) -> Iterator["OffloadPolicy"]:
        """All 2^6 = 64 policy vectors, in lexicographic order."""
        for bits in itertools.product((0, 1), repeat=NUM_SUBLAYERS):
            yield cls(bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def p(self, index: int) -> int:
        """The paper's :math:`p_i` with 1-based *index*; ``p(0)``
        returns :math:`p_6` per the paper's boundary condition
        :math:`p_0 = p_6` (sublayer 1's activation arrives from the
        previous layer's sublayer 6)."""
        if index == 0:
            return self.bits[NUM_SUBLAYERS - 1]
        if not 1 <= index <= NUM_SUBLAYERS:
            raise PolicyError(f"sublayer index out of range: {index}")
        return self.bits[index - 1]

    def device(self, sublayer: Sublayer) -> Device:
        """The device that computes the given sublayer."""
        return Device.CPU if self.p(int(sublayer)) else Device.GPU

    def on_cpu(self, sublayer: Sublayer) -> bool:
        return self.device(sublayer) is Device.CPU

    def on_gpu(self, sublayer: Sublayer) -> bool:
        return self.device(sublayer) is Device.GPU

    @property
    def all_cpu(self) -> bool:
        return all(b == 1 for b in self.bits)

    def __str__(self) -> str:
        return "(" + ", ".join(str(b) for b in self.bits) + ")"


#: The three primary policies §7.1 identifies across all OPT models.
FULL_GPU = OffloadPolicy.from_string("000000")
FULL_CPU = OffloadPolicy.from_string("111111")
PARTIAL_CPU = OffloadPolicy.from_string("011000")

#: The MoE-flavoured policy discussed in §7.1 ("Adaptability to other
#: models"): CPU also takes the expert FC sublayers.
PARTIAL_CPU_MOE = OffloadPolicy.from_string("011011")

#: FlexGen's fixed compute-offloading choice: only the attention
#: scoring sublayers (2, 3) go to the CPU — identical bits to
#: PARTIAL_CPU but chosen empirically and never revisited (§5).
FLEXGEN_POLICY = PARTIAL_CPU
