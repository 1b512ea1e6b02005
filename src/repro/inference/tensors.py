"""Device-placed tensors and transfer accounting.

The functional engine never lets two tensors on different devices
interact: every cross-device use requires an explicit ``to`` call,
which records the moved bytes in a :class:`TransferLog`.  That log is
what the tests compare against the latency model's Eq. (4)-(7)
transfer terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import PlacementError

#: Valid device names in the functional engine.
DEVICES = ("cpu", "gpu")


@dataclass
class TransferRecord:
    """One logged cross-device copy."""

    label: str
    source: str
    destination: str
    num_bytes: int


class TransferLog:
    """Accumulates every cross-device copy the engine performs.

    Observers registered via :meth:`subscribe` see each record as it
    is logged — the telemetry layer uses this to keep byte counters
    exactly in sync with the log (no sampling, no double counting).
    """

    def __init__(self) -> None:
        self._records: List[TransferRecord] = []
        self._listeners: List[Callable[[TransferRecord], None]] = []

    def subscribe(self, listener: Callable[[TransferRecord], None]) -> None:
        """Call ``listener`` with every future :class:`TransferRecord`."""
        self._listeners.append(listener)

    def record(self, label: str, source: str, destination: str,
               num_bytes: int) -> None:
        entry = TransferRecord(label, source, destination, num_bytes)
        self._records.append(entry)
        for listener in self._listeners:
            listener(entry)

    @property
    def records(self) -> List[TransferRecord]:
        return list(self._records)

    @property
    def total_bytes(self) -> int:
        return sum(r.num_bytes for r in self._records)

    def bytes_by_label(self) -> Dict[str, int]:
        """Total bytes grouped by transfer label (e.g. 'weights:FC1')."""
        grouped: Dict[str, int] = {}
        for rec in self._records:
            grouped[rec.label] = grouped.get(rec.label, 0) + rec.num_bytes
        return grouped

    def clear(self) -> None:
        self._records.clear()


@dataclass
class DeviceTensor:
    """A numpy array pinned to a named device."""

    data: np.ndarray
    device: str

    def __post_init__(self) -> None:
        if self.device not in DEVICES:
            raise PlacementError(f"unknown device {self.device!r}")

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes_bf16(self) -> int:
        """Bytes this tensor occupies in the BF16 wire format (the
        engine stores FP32 numerically but accounts BF16 traffic,
        matching the real framework's data path)."""
        return self.data.size * 2

    def to(self, device: str, log: TransferLog, label: str) -> "DeviceTensor":
        """Move to ``device``, logging the copy; no-op if already there."""
        if device not in DEVICES:
            raise PlacementError(f"unknown device {device!r}")
        if device == self.device:
            return self
        log.record(label, self.device, device, self.nbytes_bf16)
        return DeviceTensor(self.data.copy(), device)

    def require_on(self, device: str) -> np.ndarray:
        """Return the raw array, asserting placement."""
        if self.device != device:
            raise PlacementError(
                f"tensor on {self.device!r} used on {device!r}")
        return self.data
