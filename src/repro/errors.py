"""Exception hierarchy for the LIA reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A system, model, or framework configuration is inconsistent."""


class CapacityError(ReproError):
    """A memory device cannot hold the requested allocation.

    Mirrors a CUDA/NUMA out-of-memory condition in the real system; the
    benchmark harness reports these as ``OOM`` entries, matching the
    paper's figures (e.g. DGX-A100 at B=900 in Fig. 14).
    """

    def __init__(self, message: str, *, requested: float = 0.0,
                 available: float = 0.0, device: str = "") -> None:
        super().__init__(message)
        self.requested = requested
        self.available = available
        self.device = device


class PolicyError(ReproError):
    """An offloading policy vector is malformed or infeasible."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class PlacementError(ReproError):
    """A tensor was used on a device it does not reside on."""
