"""KV-cache management with device placement.

Stores per-layer K and V as growing host-side arrays, mirroring the
framework assumption that the CPU owns all intermediate values.  The
cache can serve reads for either device; cross-device reads are logged
as PCIe traffic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, PlacementError
from repro.inference.tensors import DeviceTensor, TransferLog


class KVCache:
    """The K/V history of one decoder layer.

    Arrays have shape ``(batch, seq, kv_dim)``; ``append`` grows the
    sequence dimension by the new tokens (L at prefill, 1 per decode
    step).  The cache is pinned to the CPU, LIA's home for all
    intermediate values.
    """

    def __init__(self) -> None:
        self._k: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    @property
    def seq_len(self) -> int:
        """Number of cached tokens (0 before prefill)."""
        if self._k is None:
            return 0
        return self._k.shape[1]

    @property
    def nbytes_bf16(self) -> int:
        """BF16 bytes of the cached K and V."""
        if self._k is None:
            return 0
        return (self._k.size + self._v.size) * 2

    def append(self, keys: DeviceTensor, values: DeviceTensor,
               log: TransferLog, layer: int) -> None:
        """Append new KV vectors, pulling them to the CPU.

        The pull is the Eq. (9) KV-store transfer when the QKV mapping
        ran on the GPU.
        """
        if keys.shape != values.shape:
            raise ConfigurationError(
                f"K/V shapes differ: {keys.shape} vs {values.shape}")
        keys_home = keys.to("cpu", log, f"kv-store:L{layer}")
        values_home = values.to("cpu", log, f"kv-store:L{layer}")
        if self._k is None:
            self._k = keys_home.data.copy()
            self._v = values_home.data.copy()
            return
        if keys_home.data.shape[0] != self._k.shape[0]:
            raise ConfigurationError(
                "batch size changed between appends")
        self._k = np.concatenate([self._k, keys_home.data], axis=1)
        self._v = np.concatenate([self._v, values_home.data], axis=1)

    def read_k(self, device: str, log: TransferLog,
               layer: int) -> DeviceTensor:
        """Fetch the full K history onto ``device``.

        A read onto the GPU logs the Eq. (5) KV transfer
        the paper's compute-offloading exists to avoid.
        """
        if self._k is None:
            raise PlacementError(f"layer {layer}: empty KV cache read")
        k = DeviceTensor(self._k, "cpu")
        return k.to(device, log, f"kv-load:L{layer}")

    def read_v(self, device: str, log: TransferLog,
               layer: int) -> DeviceTensor:
        """Fetch the full V history onto ``device`` (see `read_k`)."""
        if self._v is None:
            raise PlacementError(f"layer {layer}: empty KV cache read")
        v = DeviceTensor(self._v, "cpu")
        return v.to(device, log, f"kv-load:L{layer}")

    def read(self, device: str, log: TransferLog,
             layer: int) -> Tuple[DeviceTensor, DeviceTensor]:
        """Fetch both K and V histories onto ``device``."""
        return (self.read_k(device, log, layer),
                self.read_v(device, log, layer))


def make_caches(n_layers: int) -> List[KVCache]:
    """One cache per decoder layer."""
    if n_layers < 1:
        raise ConfigurationError(f"n_layers must be >= 1, got {n_layers}")
    return [KVCache() for _ in range(n_layers)]
