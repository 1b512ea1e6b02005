"""Fault-scenario specifications: what breaks, when, and how hard.

A :class:`FaultScenario` is a declarative, fully seeded description
of a degraded operating regime: a list of timed :class:`FaultEvent`
windows (GPU HBM pressure, PCIe link downshift, transient transfer
stalls, CXL bandwidth contention, CPU core preemption) plus the
degradation-policy knobs the serving layer reacts with (admission
control and retry/backoff, see :mod:`repro.serving.degradation`).

Scenarios load from JSON always and from YAML when PyYAML is
importable, through the one spec codec in :mod:`repro.specs`; the
dictionary schema is documented in docs/ROBUSTNESS.md.  Everything is
validated eagerly so a malformed spec fails with one
:class:`ConfigurationError` line, not a traceback deep inside the
simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.specs import load_spec, spec_from_dict, spec_to_dict


class FaultKind(enum.Enum):
    """The fault classes the injector knows how to apply."""

    #: Reserve a fraction of GPU HBM (another tenant, fragmentation,
    #: or a working-buffer spike); magnitude = reserved capacity
    #: fraction in [0, 1).  Squeezes Optimization-1 residency and can
    #: force batch shrinking.
    GPU_HBM_PRESSURE = "gpu-hbm-pressure"
    #: Host-link bandwidth downshift (e.g. PCIe Gen5 -> Gen4 link
    #: retraining); magnitude = bandwidth scale factor in (0, 1].
    PCIE_DOWNSHIFT = "pcie-downshift"
    #: Transient per-chunk transfer stalls (replayed DLLP/TLP errors,
    #: DMA engine hiccups); magnitude = per-chunk stall probability
    #: in [0, 1].
    PCIE_STALL = "pcie-stall"
    #: CXL expander bandwidth contention (a co-tenant streaming from
    #: the same pool); magnitude = bandwidth scale factor in (0, 1].
    CXL_CONTENTION = "cxl-contention"
    #: CPU core preemption (co-scheduled jobs stealing AMX cores);
    #: magnitude = fraction of compute lost in [0, 1).
    CPU_PREEMPTION = "cpu-preemption"


#: Fault kinds that degrade capacity/latency (everything except the
#: probabilistic stall class, which degrades via retries instead).
PERFORMANCE_KINDS = (
    FaultKind.GPU_HBM_PRESSURE,
    FaultKind.PCIE_DOWNSHIFT,
    FaultKind.CXL_CONTENTION,
    FaultKind.CPU_PREEMPTION,
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault window on the simulated clock (seconds)."""

    kind: FaultKind
    start: float = 0.0
    #: Window length in sim-seconds; ``inf`` means "for the whole run".
    duration: float = float("inf")
    #: Kind-specific severity (see :class:`FaultKind` docstrings).
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not self.start >= 0.0:
            raise ConfigurationError(
                f"fault {self.kind.value}: start must be >= 0, "
                f"got {self.start}")
        if not self.duration > 0.0:
            raise ConfigurationError(
                f"fault {self.kind.value}: duration must be > 0, "
                f"got {self.duration}")
        if self.kind in (FaultKind.PCIE_DOWNSHIFT,
                         FaultKind.CXL_CONTENTION):
            if not 0.0 < self.magnitude <= 1.0:
                raise ConfigurationError(
                    f"fault {self.kind.value}: magnitude is a bandwidth "
                    f"scale in (0, 1], got {self.magnitude}")
        elif self.kind in (FaultKind.GPU_HBM_PRESSURE,
                           FaultKind.CPU_PREEMPTION):
            if not 0.0 <= self.magnitude < 1.0:
                raise ConfigurationError(
                    f"fault {self.kind.value}: magnitude is a capacity "
                    f"fraction in [0, 1), got {self.magnitude}")
        else:  # PCIE_STALL
            if not 0.0 <= self.magnitude <= 1.0:
                raise ConfigurationError(
                    f"fault {self.kind.value}: magnitude is a "
                    f"probability in [0, 1], got {self.magnitude}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, time: float) -> bool:
        """Half-open window: active on ``[start, end)``."""
        return self.start <= time < self.end


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-timeout-and-exponential-backoff for failed chunks."""

    max_retries: int = 3
    #: Seconds a stalled chunk waits before the failure is declared.
    timeout_s: float = 0.05
    #: First backoff delay; attempt ``k`` waits ``base * factor**k``.
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if not self.timeout_s >= 0.0:
            raise ConfigurationError(
                f"timeout_s must be >= 0, got {self.timeout_s}")
        if not self.backoff_base_s >= 0.0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if not self.backoff_factor >= 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-indexed)."""
        if attempt < 0:
            raise ConfigurationError(
                f"attempt must be >= 0, got {attempt}")
        return self.backoff_base_s * self.backoff_factor ** attempt


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure at the front door of the serving queue."""

    #: Maximum queued-or-running requests before deferral; 0 disables
    #: admission control entirely.
    max_queue_depth: int = 0
    #: How many client-side backoff deferrals before the request is
    #: shed (dropped and reported, never silently lost).
    max_deferrals: int = 3

    def __post_init__(self) -> None:
        if self.max_queue_depth < 0:
            raise ConfigurationError(
                f"max_queue_depth must be >= 0, "
                f"got {self.max_queue_depth}")
        if self.max_deferrals < 0:
            raise ConfigurationError(
                f"max_deferrals must be >= 0, got {self.max_deferrals}")

    @property
    def enabled(self) -> bool:
        return self.max_queue_depth > 0


@dataclass(frozen=True)
class FaultScenario:
    """A named, seeded fault schedule plus degradation knobs."""

    name: str = "baseline"
    seed: int = 0
    events: Tuple[FaultEvent, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Transfer chunks per request used by the stall model; defaults
    #: to one chunk per streamed decoder layer when 0.
    chunks_per_request: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed}")
        if self.chunks_per_request < 0:
            raise ConfigurationError(
                f"chunks_per_request must be >= 0, "
                f"got {self.chunks_per_request}")

    @property
    def idle(self) -> bool:
        """True when the scenario cannot perturb anything: no fault
        windows and no admission bound.  An idle scenario must be
        bit-for-bit equivalent to running without the fault layer."""
        return not self.events and not self.admission.enabled

    def events_of(self, kind: FaultKind) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    def active_at(self, time: float) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.active_at(time))

    def rng_key(self, index: int) -> int:
        """The seed of the per-decision RNG: ``random.Random(
        rng_key(index))``.  It mixes ``(scenario seed, decision index)``
        with a fixed constant, so outcomes depend only on the scenario
        and the request's position in the workload — never on worker
        count, estimation order, or interleaving — and a block of draws
        can reuse one generator reseeded per key."""
        return (self.seed << 24) ^ 0x9E3779B1 ^ index


# ----------------------------------------------------------------------
# Dictionary / file loading (the codec rules live in repro.specs)
# ----------------------------------------------------------------------
def event_from_dict(data: Mapping[str, Any]) -> FaultEvent:
    """Build one :class:`FaultEvent` from its dictionary form."""
    return spec_from_dict(FaultEvent, data, "fault event")


def scenario_from_dict(data: Mapping[str, Any]) -> FaultScenario:
    """Build a :class:`FaultScenario` from its dictionary form."""
    return spec_from_dict(FaultScenario, data, "scenario")


def scenario_to_dict(scenario: FaultScenario) -> Dict[str, Any]:
    """The JSON-serializable form of a scenario (exact round-trip)."""
    return spec_to_dict(scenario)


def load_scenario(path: str) -> FaultScenario:
    """Load a scenario spec from a ``.json``/``.yaml``/``.yml`` file."""
    return load_spec(FaultScenario, path, "scenario")
