"""Weight quantization transforms (INT8).

AMX natively supports INT8 tiles at twice the BF16 rate (§2.2), and
the paper's related-work discussion notes quantization as the other
lever against memory pressure (at some accuracy cost, §1).  This
module derives INT8 variants of any model spec: weights shrink 2x,
which halves every ``D_Y`` term in Table 1 — PCIe weight transfers,
CPU weight streaming, and GPU residency footprints all benefit.

Activations and the KV cache stay BF16 (the W8A16 scheme GPTQ-style
deployments use), so ``D_X`` and the KV terms are unchanged.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigurationError
from repro.models.spec import ModelSpec
from repro.units import BYTES_PER_INT8


def quantize_weights(spec: ModelSpec) -> ModelSpec:
    """An INT8-weight variant of ``spec`` (name gains an ``-int8``
    suffix).

    Only the *storage* width changes; the architecture is identical.
    Note the accuracy caveat the paper raises for compression
    approaches — this reproduction models performance only.
    """
    if BYTES_PER_INT8 >= spec.bytes_per_weight:
        raise ConfigurationError(
            f"{spec.name} already stores {spec.bytes_per_weight} "
            f"B/weight; quantizing to {BYTES_PER_INT8} would not "
            "shrink it")
    return replace(spec, name=spec.name + "-int8",
                   bytes_per_weight=BYTES_PER_INT8)
