"""Built-in fault scenarios: the presets behind ``repro faults``.

Each preset is a ready-to-run :class:`FaultScenario` capturing one
operating regime the robustness testbed exercises; the CLI resolves
``--preset <name>`` here and docs/ROBUSTNESS.md documents the
corresponding spec files users can start from.
"""

from __future__ import annotations

from typing import Dict

from repro.faults.spec import (AdmissionPolicy, FaultEvent, FaultKind,
                               FaultScenario, RetryPolicy)
from repro.specs import build_all, lookup


def _pcie_downshift() -> FaultScenario:
    """Gen5 -> Gen4 link retraining mid-run: the host link loses half
    its bandwidth for a long window, then recovers."""
    return FaultScenario(
        name="pcie-downshift",
        seed=1,
        events=(
            FaultEvent(kind=FaultKind.PCIE_DOWNSHIFT, start=30.0,
                       duration=240.0, magnitude=0.5),
        ))


def _pcie_flaky() -> FaultScenario:
    """Transient DMA stalls: every transfer chunk has a small chance
    of stalling and being retried with exponential backoff."""
    return FaultScenario(
        name="pcie-flaky",
        seed=2,
        events=(
            FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.03),
        ),
        retry=RetryPolicy(max_retries=4, timeout_s=0.05,
                          backoff_base_s=0.01, backoff_factor=2.0))


def _gpu_pressure() -> FaultScenario:
    """A co-tenant claims 40 % of HBM: Optimization-1 residency
    shrinks and the policy solver falls back toward AMX sublayers."""
    return FaultScenario(
        name="gpu-pressure",
        seed=3,
        events=(
            FaultEvent(kind=FaultKind.GPU_HBM_PRESSURE, start=10.0,
                       duration=600.0, magnitude=0.4),
        ))


def _cxl_contention() -> FaultScenario:
    """A co-tenant streams from the CXL pool, leaving 60 % of its
    bandwidth (§6 Observation-1 in reverse)."""
    return FaultScenario(
        name="cxl-contention",
        seed=4,
        events=(
            FaultEvent(kind=FaultKind.CXL_CONTENTION, magnitude=0.6),
        ))


def _noisy_neighbor() -> FaultScenario:
    """Everything at once, bounded by backpressure: preempted cores,
    a flaky link, HBM pressure, and an admission-controlled queue."""
    return FaultScenario(
        name="noisy-neighbor",
        seed=5,
        events=(
            FaultEvent(kind=FaultKind.CPU_PREEMPTION, start=20.0,
                       duration=120.0, magnitude=0.25),
            FaultEvent(kind=FaultKind.PCIE_DOWNSHIFT, start=60.0,
                       duration=180.0, magnitude=0.5),
            FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.02),
            FaultEvent(kind=FaultKind.GPU_HBM_PRESSURE, start=90.0,
                       duration=120.0, magnitude=0.3),
        ),
        retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                          backoff_base_s=0.02, backoff_factor=2.0),
        admission=AdmissionPolicy(max_queue_depth=16, max_deferrals=3))


_PRESETS = {
    "pcie-downshift": _pcie_downshift,
    "pcie-flaky": _pcie_flaky,
    "gpu-pressure": _gpu_pressure,
    "cxl-contention": _cxl_contention,
    "noisy-neighbor": _noisy_neighbor,
}


def builtin_scenarios() -> Dict[str, FaultScenario]:
    """All presets, keyed by name."""
    return build_all(_PRESETS)


def get_scenario(name: str) -> FaultScenario:
    """Look up a preset scenario by name."""
    return lookup(_PRESETS, name, "fault scenario")
