"""Deterministic fault injection against the hardware models.

The :class:`FaultInjector` evaluates a :class:`FaultScenario` at a
point in simulated time and answers the two questions the serving
layer asks:

* *How degraded is the platform right now?* —
  :meth:`FaultInjector.performance_signature` names the active
  capacity/latency faults (link downshift, CXL contention, HBM
  pressure, core preemption), and :func:`signature_system` builds a
  :class:`~repro.hardware.system.SystemConfig` copy with them
  applied, so the §5 policy optimizer re-solves Eq. (1) on the
  hardware that actually exists at that moment.
* *How likely is a transfer chunk to stall?* —
  :meth:`FaultInjector.stall_probability`.  The serving engine draws
  each chunk's outcome from a per-request RNG derived from the
  scenario seed and the request index
  (:meth:`~repro.faults.spec.FaultScenario.rng_key`), so outcomes are
  reproducible regardless of worker count or evaluation order.

Every answer is pure in ``(scenario, time, index)``; the injector
holds no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Tuple

from repro.errors import ConfigurationError
from repro.faults.spec import (PERFORMANCE_KINDS, FaultKind,
                               FaultScenario)
from repro.hardware.system import SystemConfig
from repro.telemetry.runtime import current as current_telemetry

#: The (kind-value, magnitude) signature of an active fault set.  It
#: fully determines every :func:`apply_faults` factor, so a run builds
#: one degraded system per signature.
FaultSignature = Tuple[Tuple[str, float], ...]


class FaultInjector:
    """Evaluates a scenario's fault windows in simulated time."""

    def __init__(self, scenario: FaultScenario) -> None:
        self.scenario = scenario

    # ------------------------------------------------------------------
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
        systems, so a run plans per signature rather than per
        timestamp.
        """
        active = []
        for kind in PERFORMANCE_KINDS:
            for event in self.scenario.events_of(kind):
                if event.active_at(time):
                    active.append((kind.value, event.magnitude))
        return tuple(active)

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
        :meth:`performance_signature` and :meth:`stall_probability`.
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


def signature_system(system: SystemConfig,
                     signature: FaultSignature) -> SystemConfig:
    """``system`` under the capacity/latency faults of ``signature``.

    Bandwidth faults compose as the product of their scales, losses as
    ``1 - prod(1 - m_i)``, each folded in signature (scenario event)
    order.  Returns ``system`` itself (same object) for the empty
    signature, preserving bit-identity of the fault-free path.
    Telemetry counter: ``faults.degraded_systems`` per construction.
    """
    if not signature:
        return system
    kept = dict.fromkeys(PERFORMANCE_KINDS, 1.0)
    for value, magnitude in signature:
        kind = FaultKind(value)
        kept[kind] *= (magnitude if kind in (FaultKind.PCIE_DOWNSHIFT,
                                             FaultKind.CXL_CONTENTION)
                       else 1.0 - magnitude)
    degraded = apply_faults(
        system, link_scale=kept[FaultKind.PCIE_DOWNSHIFT],
        cxl_scale=kept[FaultKind.CXL_CONTENTION],
        cpu_loss=1.0 - kept[FaultKind.CPU_PREEMPTION],
        gpu_reserved=1.0 - kept[FaultKind.GPU_HBM_PRESSURE])
    telemetry = current_telemetry()
    if telemetry is not None:
        telemetry.metrics.counter(
            "faults.degraded_systems", system=system.name).inc()
    return degraded


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

