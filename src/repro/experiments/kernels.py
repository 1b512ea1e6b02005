"""Built-in sweep kernels: named, picklable task contracts.

Each kernel is a factory registered with
:func:`repro.experiments.parallel.sweep_kernel`.  The factory takes a
small picklable context (model/system *names*, a frozen
:class:`~repro.core.config.LiaConfig`, shared-memory handles) and
rebuilds the sweep closure — estimator, simulator, attached arrays —
inside the worker; the heavyweight model/system objects themselves
never cross the process boundary.  Workers memoize the resolved
closure per ``(kernel, ctx)``, so one worker rebuilds each estimator
once, not once per chunk.

The kernels cover the hot grids: the Fig. 9/10/11 drivers, the
Eq. (1) ``policy_map``, fleet-size sweeps over shared-memory
workloads, and the trace x chaos x fleet grid.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.experiments.parallel import (ShmArrayHandle, SharedWorkload,
                                        sweep_kernel)
from repro.hardware.system import SystemConfig, get_system
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


def zoo_resolvable(spec: ModelSpec, system: SystemConfig) -> bool:
    """Whether ``(spec, system)`` rebuild exactly from the zoo by name.

    The process path ships names, not objects; a hand-built spec or a
    mutated system would silently rebuild differently, so call sites
    gate on this and keep such sweeps on the thread path.
    """
    try:
        return (get_model(spec.name) is spec
                and get_system(system.name) is system)
    except Exception:
        return False


# ----------------------------------------------------------------------
# Estimator grids (CLI sweep, Fig. 10/11)
# ----------------------------------------------------------------------
@sweep_kernel("estimate")
def estimate_kernel(model: str, system: str,
                    config: LiaConfig) -> Callable[[Any], Any]:
    """Point ``(B, L_in, L_out)`` -> full :class:`InferenceEstimate`."""
    estimator = LiaEstimator(get_model(model), get_system(system),
                             config)

    def run(point: Tuple[int, int, int]) -> Any:
        return estimator.estimate(InferenceRequest(*point))

    return run


@sweep_kernel("fig10.latency")
def fig10_latency_kernel() -> Callable[[Any], Any]:
    """Point ``(system, model, framework, L_in, L_out)`` ->
    latency seconds, or the ``"OOM"`` sentinel."""
    from repro.experiments.frameworks import estimate_or_oom
    from repro.experiments.reporting import OOM

    def run(point: Tuple[str, str, str, int, int]) -> Any:
        system_name, model, framework, input_len, output_len = point
        estimated = estimate_or_oom(
            framework, get_model(model), get_system(system_name),
            InferenceRequest(1, input_len, output_len))
        return OOM if estimated == OOM else estimated.latency

    return run


@sweep_kernel("fig11.throughput")
def fig11_throughput_kernel() -> Callable[[Any], Any]:
    """Point ``(system, model, framework, B, L_in, L_out)`` ->
    tokens/s, or the ``"OOM"`` sentinel."""
    from repro.experiments.frameworks import estimate_or_oom
    from repro.experiments.reporting import OOM

    def run(point: Tuple[str, str, str, int, int, int]) -> Any:
        system_name, model, framework, batch, input_len, output_len = \
            point
        estimated = estimate_or_oom(
            framework, get_model(model), get_system(system_name),
            InferenceRequest(batch, input_len, output_len))
        return OOM if estimated == OOM else estimated.throughput

    return run


# ----------------------------------------------------------------------
# Eq. (1) policy grids (Fig. 9, policy_map)
# ----------------------------------------------------------------------
@sweep_kernel("fig09.policy")
def fig09_policy_kernel(model: str,
                        config: LiaConfig) -> Callable[[Any], Any]:
    """Point ``(system, stage_value, B, L)`` -> policy string."""
    from repro.core.optimizer import optimal_policy

    spec = get_model(model)

    def run(point: Tuple[str, str, int, int]) -> str:
        system_name, stage_value, batch_size, input_len = point
        decision = optimal_policy(spec, Stage(stage_value), batch_size,
                                  input_len, get_system(system_name),
                                  config)
        return str(decision.policy)

    return run


@sweep_kernel("policy_map")
def policy_map_kernel(model: str, system: str, stage: Stage,
                      config: LiaConfig) -> Callable[[Any], Any]:
    """Point ``(B, L)`` -> the winning :class:`OffloadPolicy`."""
    from repro.core.optimizer import optimal_policy

    spec = get_model(model)
    platform = get_system(system)

    def run(point: Tuple[int, int]) -> Any:
        return optimal_policy(spec, stage, point[0], point[1],
                              platform, config).policy

    return run


# ----------------------------------------------------------------------
# Serving sweeps over shared-memory workloads
# ----------------------------------------------------------------------
@sweep_kernel("replicas.fleet_size")
def replicas_fleet_size_kernel(model: str, system: str,
                               config: LiaConfig,
                               workload: SharedWorkload,
                               arrivals: ShmArrayHandle,
                               dispatch: str) -> Callable[[Any], Any]:
    """Point ``n_replicas`` -> fleet-size summary dict.

    The workload codes and arrival trace attach zero-copy from shared
    memory; only the per-cell summary crosses back to the parent.
    """
    from repro.serving.replicas import (MultiReplicaSimulator,
                                        fleet_size_summary)

    estimator = LiaEstimator(get_model(model), get_system(system),
                             config)
    attached_workload = workload.attach()
    attached_arrivals = arrivals.array()

    def run(n_replicas: int) -> Dict[str, Any]:
        simulator = MultiReplicaSimulator(estimator, n_replicas,
                                          dispatch=dispatch)
        report = simulator.run(attached_workload, attached_arrivals)
        return fleet_size_summary(report)

    return run


@sweep_kernel("fleet.cell")
def fleet_cell_kernel(model: str, system: str, config: LiaConfig,
                      shapes: Tuple[InferenceRequest, ...],
                      seed: int,
                      n_requests: int) -> Callable[[Any], Any]:
    """Point ``(trace, chaos, n_replicas)`` -> fleet summary dict.

    One grid cell is one whole :class:`FleetSimulator` run: the trace
    and chaos presets rebuild by name inside the worker (both are
    seeded specs — cheap and deterministic), the request mix samples
    from the shared ``(seed, shapes)`` contract, and only the scalar
    cross-section returns (see
    :func:`repro.serving.fleet.run_fleet_cell`).
    """
    from repro.serving.fleet import run_fleet_cell

    estimator = LiaEstimator(get_model(model), get_system(system),
                             config)

    def run(point: Tuple[str, str, int]) -> Dict[str, Any]:
        trace_name, chaos_name, n_replicas = point
        return run_fleet_cell(estimator, trace_name, chaos_name,
                              n_replicas, shapes=shapes, seed=seed,
                              n_requests=n_requests)

    return run
