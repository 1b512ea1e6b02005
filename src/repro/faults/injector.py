"""Deterministic fault injection against the hardware models.

The :class:`FaultInjector` evaluates a :class:`FaultScenario` at a
point in simulated time and answers the two questions the serving
layer asks:

* *How degraded is the platform right now?* —
  :meth:`FaultInjector.degraded_system` builds a
  :class:`~repro.hardware.system.SystemConfig` copy with the active
  faults applied (link downshift, CXL contention, HBM pressure, core
  preemption), so the §5 policy optimizer re-solves Eq. (1) on the
  hardware that actually exists at that moment.
* *Did this transfer chunk stall?* — :meth:`FaultInjector.chunk_stalls`
  draws from a per-request RNG derived from the scenario seed and the
  request index, so outcomes are reproducible regardless of worker
  count or evaluation order.

Every answer is pure in ``(scenario, time, index)``; the injector
holds no mutable state beyond a memo of degraded systems per active
fault signature.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.core.cache import cache_token
from repro.errors import ConfigurationError
from repro.faults.spec import (PERFORMANCE_KINDS, FaultKind,
                               FaultScenario)
from repro.hardware.system import SystemConfig
from repro.telemetry.runtime import current as current_telemetry

#: The (kind-value, magnitude) signature of an active fault set —
#: the memo key for degraded-system construction.
FaultSignature = Tuple[Tuple[str, float], ...]

#: Process-global memo of degraded systems keyed on the *identity*
#: of the base system plus the fault signature.  A signature fully
#: determines every :func:`apply_faults` factor (each magnitude is
#: part of the signature), so the construction is pure in the key.
#: Sharing the resulting ``SystemConfig`` object across runs is what
#: lets the identity-token analytic caches (``optimal_policy`` /
#: ``estimate``, see :mod:`repro.core.cache`) hit across fresh
#: simulators instead of re-solving Eq. (1)/(2) per run.
_DEGRADED_LOCK = threading.Lock()
_DEGRADED_GLOBAL: Dict[Tuple[Any, FaultSignature], SystemConfig] = {}


def clear_degraded_memo() -> None:
    """Drop the process-global degraded-system memo (cold starts)."""
    with _DEGRADED_LOCK:
        _DEGRADED_GLOBAL.clear()


class FaultInjector:
    """Applies a scenario's fault windows to one system config."""

    def __init__(self, scenario: FaultScenario) -> None:
        self.scenario = scenario
        self._degraded_memo: Dict[
            Tuple[str, FaultSignature], SystemConfig] = {}

    # ------------------------------------------------------------------
    # Scalar degradation factors
    # ------------------------------------------------------------------
    def _scale(self, kind: FaultKind, time: float) -> float:
        """Product of the active bandwidth-scale magnitudes of a kind."""
        scale = 1.0
        for event in self.scenario.events_of(kind):
            if event.active_at(time):
                scale *= event.magnitude
        return scale

    def link_scale(self, time: float) -> float:
        """Host-link bandwidth scale in (0, 1] at ``time``."""
        return self._scale(FaultKind.PCIE_DOWNSHIFT, time)

    def cxl_scale(self, time: float) -> float:
        """CXL pool bandwidth scale in (0, 1] at ``time``."""
        return self._scale(FaultKind.CXL_CONTENTION, time)

    def cpu_loss(self, time: float) -> float:
        """Fraction of CPU compute lost to preemption at ``time``."""
        available = 1.0
        for event in self.scenario.events_of(FaultKind.CPU_PREEMPTION):
            if event.active_at(time):
                available *= 1.0 - event.magnitude
        return 1.0 - available

    def gpu_reserved_fraction(self, time: float) -> float:
        """Fraction of HBM capacity stolen by pressure at ``time``."""
        free = 1.0
        for event in self.scenario.events_of(FaultKind.GPU_HBM_PRESSURE):
            if event.active_at(time):
                free *= 1.0 - event.magnitude
        return 1.0 - free

    def stall_probability(self, time: float) -> float:
        """Per-chunk transfer stall probability at ``time``.

        Independent stall sources compose as
        ``1 - prod(1 - p_i)`` — the chunk survives only if every
        active source lets it through.
        """
        survive = 1.0
        for event in self.scenario.events_of(FaultKind.PCIE_STALL):
            if event.active_at(time):
                survive *= 1.0 - event.magnitude
        return 1.0 - survive

    # ------------------------------------------------------------------
    def performance_signature(self, time: float) -> FaultSignature:
        """Signature of the active capacity/latency faults at ``time``.

        Two instants with equal signatures see identical degraded
        systems, so estimates memoize on the signature rather than on
        raw timestamps.
        """
        active = []
        for kind in PERFORMANCE_KINDS:
            for event in self.scenario.events_of(kind):
                if event.active_at(time):
                    active.append((kind.value, event.magnitude))
        return tuple(active)

    def any_performance_fault(self, time: float) -> bool:
        return bool(self.performance_signature(time))

    def regimes(self) -> Tuple[
            Tuple[float, float, FaultSignature, float], ...]:
        """The scenario's piecewise-constant fault regimes.

        Fault windows are time-bounded a priori, so the timeline
        splits at every event ``start``/``end`` into half-open
        segments ``[lo, hi)`` within which both the performance
        signature and the stall probability are constant (events are
        active on ``start <= t < end``).  Returns
        ``((lo, hi, signature, stall_p), ...)`` covering ``[0, inf)``;
        the final segment has ``hi = math.inf``.

        This is the segmentation the piecewise-Lindley engine keys on:
        any two instants inside one segment are interchangeable for
        :meth:`performance_signature`, :meth:`degraded_system` and
        :meth:`stall_probability`.
        """
        cuts = {0.0}
        for event in self.scenario.events:
            cuts.add(float(event.start))
            if math.isfinite(event.end):
                cuts.add(float(event.end))
        bounds = sorted(cuts)
        segments = []
        for i, lo in enumerate(bounds):
            hi = bounds[i + 1] if i + 1 < len(bounds) else math.inf
            segments.append((lo, hi, self.performance_signature(lo),
                             self.stall_probability(lo)))
        return tuple(segments)

    def degraded_system(self, system: SystemConfig,
                        time: float) -> SystemConfig:
        """The platform as the active faults leave it at ``time``.

        Returns ``system`` itself (same object) when nothing is
        active, preserving bit-identity of the fault-free path.
        Telemetry counter: ``faults.degraded_systems`` per fresh
        construction.
        """
        signature = self.performance_signature(time)
        if not signature:
            return system
        key = (system.name, signature)
        memo = self._degraded_memo.get(key)
        if memo is not None:
            return memo
        global_key = (cache_token(system), signature)
        with _DEGRADED_LOCK:
            degraded = _DEGRADED_GLOBAL.get(global_key)
        if degraded is None:
            built = apply_faults(
                system, link_scale=self.link_scale(time),
                cxl_scale=self.cxl_scale(time),
                cpu_loss=self.cpu_loss(time),
                gpu_reserved=self.gpu_reserved_fraction(time))
            with _DEGRADED_LOCK:
                degraded = _DEGRADED_GLOBAL.setdefault(global_key, built)
        self._degraded_memo[key] = degraded
        telemetry = current_telemetry()
        if telemetry is not None:
            telemetry.metrics.counter(
                "faults.degraded_systems", system=system.name).inc()
        return degraded

    # ------------------------------------------------------------------
    def chunk_stalls(self, time: float, index: int,
                     n_chunks: int) -> Tuple[int, ...]:
        """Indices of the transfer chunks that stall for request
        ``index`` when its service starts at ``time``.

        Deterministic in (scenario seed, request index): the draw uses
        :meth:`FaultScenario.rng_for`, never a shared RNG stream.
        """
        if n_chunks < 0:
            raise ConfigurationError(
                f"n_chunks must be >= 0, got {n_chunks}")
        probability = self.stall_probability(time)
        if probability <= 0.0 or n_chunks == 0:
            return ()
        rng = self.scenario.rng_for(index)
        return tuple(chunk for chunk in range(n_chunks)
                     if rng.random() < probability)

    def retry_succeeds(self, index: int, chunk: int,
                       attempt: int, time: float) -> bool:
        """Whether retry ``attempt`` of a stalled chunk goes through.

        Derives a fresh deterministic RNG from (request, chunk,
        attempt) so the outcome is stable under any execution order.
        """
        probability = self.stall_probability(time)
        if probability <= 0.0:
            return True
        rng = self.scenario.rng_for(
            (index + 1) * 1_000_003 + chunk * 1_009 + attempt)
        return rng.random() >= probability


def apply_faults(system: SystemConfig, *, link_scale: float = 1.0,
                 cxl_scale: float = 1.0, cpu_loss: float = 0.0,
                 gpu_reserved: float = 0.0) -> SystemConfig:
    """A copy of ``system`` with the given degradations applied.

    Used by the injector and directly by tests; each factor of 1.0 /
    0.0 leaves its subsystem untouched.
    """
    if not 0.0 < link_scale <= 1.0 or not 0.0 < cxl_scale <= 1.0:
        raise ConfigurationError(
            "bandwidth scales must be in (0, 1]")
    if not 0.0 <= cpu_loss < 1.0 or not 0.0 <= gpu_reserved < 1.0:
        raise ConfigurationError(
            "loss/reserved fractions must be in [0, 1)")
    changed = False
    name_tags = []
    host_link = system.host_link
    if link_scale < 1.0:
        host_link = host_link.degraded(link_scale)
        name_tags.append(f"link{link_scale:g}")
        changed = True
    cxl_devices = system.cxl_devices
    if cxl_scale < 1.0 and cxl_devices:
        cxl_devices = tuple(d.with_bandwidth_scale(cxl_scale)
                            for d in cxl_devices)
        name_tags.append(f"cxl{cxl_scale:g}")
        changed = True
    cpu = system.cpu
    if cpu_loss > 0.0:
        cpu = _preempted_cpu(cpu, cpu_loss)
        name_tags.append(f"cpu-{cpu_loss:g}")
        changed = True
    gpus = system.gpus
    if gpu_reserved > 0.0:
        gpus = tuple(g.with_memory_pressure(gpu_reserved) for g in gpus)
        name_tags.append(f"hbm-{gpu_reserved:g}")
        changed = True
    if not changed:
        return system
    return replace(system, name=f"{system.name}!{'+'.join(name_tags)}",
                   host_link=host_link, cxl_devices=cxl_devices,
                   cpu=cpu, gpus=gpus)


def _preempted_cpu(cpu, loss: float):
    """A CPU spec with every engine's throughput scaled by 1-loss.

    Preempted cores take both FLOPS and achievable memory bandwidth
    with them (the paper's AMX kernels scale with core count, §4).
    """
    from repro.hardware.cpu import CpuSpec
    from repro.hardware.roofline import ComputeEngine, EfficiencyCurve

    keep = 1.0 - loss
    engines = {}
    for name, engine in cpu.engines.items():
        engines[name] = ComputeEngine(
            name=f"{engine.name}!preempt{loss:g}",
            peak_flops=engine.peak_flops * keep,
            mem_bandwidth=engine.mem_bandwidth * keep,
            efficiency=EfficiencyCurve(
                max_efficiency=engine.efficiency.max_efficiency,
                half_flops=engine.efficiency.half_flops),
            dispatch_overhead=engine.dispatch_overhead)
    return CpuSpec(
        name=f"{cpu.name}!preempt{loss:g}",
        cores=max(1, math.floor(cpu.cores * keep)),
        clock_hz=cpu.clock_hz,
        memory=cpu.memory,
        engines=engines,
        sockets=cpu.sockets,
        tdp_watts=cpu.tdp_watts,
        price_usd=cpu.price_usd)


def make_injector(
        scenario: Optional[FaultScenario]) -> Optional["FaultInjector"]:
    """``None``-propagating constructor used by the serving layer."""
    if scenario is None:
        return None
    return FaultInjector(scenario)
