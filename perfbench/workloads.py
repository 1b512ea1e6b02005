"""The benchmark workloads.

Each workload is a cycle of *calls* into the program.  A call is timed
on its own and starts cold: the analytic memo caches and the resolved
sweep closures are emptied first, as in a fresh ``repro`` process.
Inputs are made from the workload seed before timing starts; the
program only sees the generated inputs.

Nothing here imports the program at module level: :func:`setup` does
the imports, so that their cost is part of the measured set-up time.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

MODEL = "opt-30b"

#: ``bench_serving``'s four-shape mix (B, L_in, L_out).
SERVING_SHAPES = ((1, 128, 16), (1, 256, 32), (1, 512, 32), (8, 256, 32))
#: Capacity planning: one server near saturation (rho ~ 0.95), then a
#: fleet sized for a multi-replica rate against a p95 SLO.
PLAN_REQUESTS = 1_000_000
PLAN_SINGLE_RATE = 0.21
PLAN_FLEET_RATE = 1.6
PLAN_SLO_P95_S = 60.0
PLAN_ERROR_BUDGET = 0.05
#: Fault layer: the same mix at rho ~ 0.95 under the composite schedule.
FAULT_REQUESTS = 500_000
FAULT_RATE = 0.21
FAULT_REPLICAS = 4
FAULT_MAX_QUEUE_DEPTH = 64
FAULT_MAX_DEFERRALS = 3
#: Continuous batching: shapes large enough that KV spills
#: HBM -> DDR -> CXL at max batch 32.
KV_SHAPES = ((1, 128, 16), (1, 512, 64), (8, 1024, 64), (32, 1024, 32))
KV_REQUESTS = 100
KV_RATE = 0.1
KV_MAX_BATCH = 32


def cold_reset() -> None:
    """Empty the in-process memos a fresh CLI invocation starts
    without, then collect garbage outside the timed region."""
    # Either memo may be refactored away; a missing one needs no reset.
    try:
        from repro.core.cache import clear_caches
    except ImportError:
        pass
    else:
        clear_caches()
    try:
        from repro.experiments import parallel
    except ImportError:
        pass
    else:
        resolved = getattr(parallel, "_RESOLVED", None)
        if isinstance(resolved, dict):
            resolved.clear()
    gc.collect()


def cache_rows() -> List[Dict[str, Any]]:
    """``cache_stats()`` rows, or none once the caches are gone."""
    try:
        from repro.core.cache import cache_stats
    except ImportError:
        return []
    return cache_stats()


def subseeds(seed: int, count: int) -> List[int]:
    import numpy as np

    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(count)]


# ----------------------------------------------------------------------
# Output digests: what is compared against the reference
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    """JSON-able copy of a figure cell or summary value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def timeline_digest(values) -> Dict[str, Any]:
    """Exact sum plus eight evenly spaced samples of one timeline."""
    import numpy as np

    array = np.asarray(values, dtype=np.float64)
    n = array.size
    picks = sorted({int(i) for i in np.linspace(0, n - 1, 8)}) if n else []
    return {"n": int(n), "fsum": math.fsum(array.tolist()),
            "samples": [float(array[i]) for i in picks]}


def report_digest(report) -> Dict[str, Any]:
    """Statistics, timeline digests and fault counters of a report."""
    merged = getattr(report, "merged", report)
    digest: Dict[str, Any] = {
        "n_served": int(getattr(merged, "n_served", None)
                        or len(merged.served)),
        "p50": float(report.latency_percentile(0.50)),
        "p95": float(report.latency_percentile(0.95)),
        "p99": float(report.latency_percentile(0.99)),
        "utilization": float(report.utilization),
        "makespan": float(report.makespan),
        "mean_queue_delay": float(report.mean_queue_delay),
        "throughput_tokens_per_s": float(report.throughput_tokens_per_s),
    }
    starts = getattr(merged, "starts", None)
    if starts is None:  # object report: materialized served records
        starts = [r.start for r in merged.served]
        finishes = [r.finish for r in merged.served]
    else:
        finishes = merged.finishes
    digest["starts"] = timeline_digest(starts)
    digest["finishes"] = timeline_digest(finishes)
    stats = getattr(report, "stats", None)
    if stats is not None:
        digest["n_offered"] = int(report.n_offered)
        digest["n_dropped"] = int(report.n_offered - merged.n_served)
        digest["fault_stats"] = _plain(stats.as_dict())
    return digest


# ----------------------------------------------------------------------
# Invariants checked under every seed
# ----------------------------------------------------------------------
def _timeline(report):
    """(arrivals, starts, finishes) arrays of the served requests."""
    import numpy as np

    if hasattr(report, "starts"):
        return (np.asarray(report.arrivals), np.asarray(report.starts),
                np.asarray(report.finishes))
    served = report.served
    return (np.asarray([r.arrival for r in served]),
            np.asarray([r.start for r in served]),
            np.asarray([r.finish for r in served]))


def fifo_problems(report, n_offered: int) -> List[str]:
    """Accounting, causality and FIFO order of one single-server or
    fleet report (fleets are FIFO per replica)."""
    import numpy as np

    problems = []
    merged = getattr(report, "merged", report)
    dropped = (int(report.n_offered) - int(merged.n_served)
               if hasattr(report, "n_offered") else 0)
    if merged.n_served + dropped != n_offered:
        problems.append(f"served {merged.n_served} + dropped {dropped} "
                        f"!= offered {n_offered}")
    arrivals, starts, finishes = _timeline(merged)
    if np.any(starts < arrivals):
        problems.append("a request starts before it arrives")
    if np.any(finishes < starts):
        problems.append("a request finishes before it starts")
    for part in getattr(report, "per_replica", None) or (merged,):
        if np.any(np.diff(np.asarray(part.finishes)) < 0):
            problems.append("FIFO finishes decrease")
            break
    return problems


# ----------------------------------------------------------------------
@dataclass
class Call:
    """One call into the program.

    ``run()`` is the timed part and returns the program's result.
    ``check(result)`` is untimed and returns ``(ops, outputs,
    problems)``: the work credited to the call, the digest compared
    with the reference and across cycles, and the invariant violations
    found in the result.  ``verify``, when set, is one more untimed
    check made once per run after the measurement.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[int, Any, List[str]]]
    verify: Optional[Callable[[], List[str]]] = None


@dataclass
class Workload:
    name: str
    #: Imports + model/system/estimator/simulator construction.
    setup: Callable[[], Dict[str, Any]]
    #: Untimed input generation; returns the cycle of calls.
    prepare: Callable[[Dict[str, Any], int], List[Call]]
    #: Outputs are lists of figure rows, each row one checked call.
    row_outputs: bool = False
    #: Per-call counters read off the outputs for the traced run.
    counters: Callable[[Any], Dict[str, float]] = field(
        default=lambda outputs: {})


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
FIGURES = ("fig09", "fig10", "fig11")
#: ``fig09.run``'s default systems.
FIG09_SYSTEMS = ("spr-a100", "spr-h100")


def _paper_setup() -> Dict[str, Any]:
    from repro.experiments import (fig09_policy_map,
                                   fig10_online_latency,
                                   fig11_offline_throughput)

    return {"drivers": {"fig09": fig09_policy_map,
                        "fig10": fig10_online_latency,
                        "fig11": fig11_offline_throughput},
            "pairs": tuple(fig10_online_latency.DEFAULT_PAIRS)}


def _rows(result) -> Tuple[int, Any, List[str]]:
    return len(result.rows), [_plain(row) for row in result.rows], []


def _paper_prepare(ctx: Dict[str, Any], seed: int) -> List[Call]:
    """The default grid in ten cold calls: fig09 per system, fig10 and
    fig11 per (system, model) pair.  Together their rows are the three
    figures' rows; a call of about a second is seen several times per
    run, where a whole figure would be seen once or twice."""
    drivers = ctx["drivers"]
    calls = [Call(f"fig09:{system}",
                  lambda system=system: drivers["fig09"].run(
                      system_names=(system,)), _rows)
             for system in FIG09_SYSTEMS]
    # Drivers are called through their module attribute (here and in
    # the calls below) so that the traced run's wrappers are seen.
    calls += [Call(f"{figure}:{system}:{model}",
                   lambda figure=figure, pair=(system, model):
                   drivers[figure].run(pairs=(pair,)), _rows)
              for figure in ("fig10", "fig11")
              for system, model in ctx["pairs"]]
    # The grid is fixed; the seed only orders the calls in a cycle.
    random.Random(seed).shuffle(calls)
    return calls


# ----------------------------------------------------------------------
# capacity-plan, serve-faults, continuous-kv
# ----------------------------------------------------------------------
def _serving_setup() -> Dict[str, Any]:
    import numpy  # noqa: F401  (part of the import cost)
    from repro.core.config import LiaConfig
    from repro.core.estimator import LiaEstimator
    from repro.hardware.system import get_system
    from repro.models.zoo import get_model
    from repro.serving import ServingSimulator
    from repro.serving.replicas import MultiReplicaSimulator
    from repro.serving.scheduler import ContinuousBatchScheduler

    spec, system = get_model(MODEL), get_system("spr-a100")
    config = LiaConfig(enforce_host_capacity=False)
    estimator = LiaEstimator(spec, system, config)
    kv_estimator = LiaEstimator(spec, system.with_cxl(2), config)
    # Calls build fresh simulators, so no per-instance memo carries
    # over from one cycle to the next; these measure construction.
    return {"estimator": estimator, "kv_estimator": kv_estimator,
            "simulators": (ServingSimulator(estimator),
                           MultiReplicaSimulator(estimator, FAULT_REPLICAS),
                           ContinuousBatchScheduler(kv_estimator))}


def _mix(shapes, n: int, seed: int):
    from repro.models.workload import InferenceRequest
    from repro.serving import WorkloadVector

    return WorkloadVector.sample_mix(
        [InferenceRequest(*shape) for shape in shapes], n, seed=seed)


def _poisson(n: int, rate: float, seed: int):
    import numpy as np
    from repro.serving import arrivals_poisson

    return np.asarray(arrivals_poisson(n, rate, seed=seed),
                      dtype=np.float64)


def fleet_sizes_evaluated(k: int) -> int:
    """Fleet sizes ``replicas_needed`` simulates to answer ``k``:
    doubling up to the first feasible power of two, then bisection,
    with p95 monotone in the fleet size (its documented contract)."""
    high, seen = 1, {1}
    while high < k:
        high *= 2
        seen.add(high)
    low = max(1, high // 2)
    while high - low > 1:
        mid = (low + high) // 2
        seen.add(mid)
        if mid >= k:
            high = mid
        else:
            low = mid
    return len(seen)


def _served(n: int):
    """Check for a FIFO report over ``n`` offered requests."""
    def check(report) -> Tuple[int, Any, List[str]]:
        return n, report_digest(report), fifo_problems(report, n)
    return check


def _plan_prepare(ctx: Dict[str, Any], seed: int) -> List[Call]:
    from repro.serving import ServingSimulator
    from repro.serving.replicas import (MultiReplicaSimulator,
                                        replicas_needed)
    from repro.telemetry import timeseries

    mix_seed, single_seed, fleet_seed = subseeds(seed, 3)
    n = PLAN_REQUESTS
    workload = _mix(SERVING_SHAPES, n, mix_seed)
    single_trace = _poisson(n, PLAN_SINGLE_RATE, single_seed)
    fleet_trace = _poisson(n, PLAN_FLEET_RATE, fleet_seed)
    estimator = ctx["estimator"]
    state: Dict[str, Any] = {}

    def single():
        report = ServingSimulator(estimator).run(workload, single_trace)
        return report, report.summary()

    def check_single(result):
        report, summary = result
        outputs = {"summary": _plain(summary),
                   "report": report_digest(report)}
        return n, outputs, fifo_problems(report, n)

    def plan():
        state["k"], state["report"] = replicas_needed(
            estimator, workload, fleet_trace, PLAN_SLO_P95_S)
        return state["k"], state["report"]

    def check_plan(result):
        k, report = result
        problems = fifo_problems(report, n)
        if report.latency_percentile(0.95) > PLAN_SLO_P95_S:
            problems.append(f"chosen fleet k={k} misses the p95 SLO")
        return (n * fleet_sizes_evaluated(k),
                {"k": int(k), "report": report_digest(report)}, problems)

    def verify() -> List[str]:
        """The fleet one replica smaller must miss the SLO."""
        k = state.get("k")
        if not k or k == 1:
            return []
        smaller = MultiReplicaSimulator(estimator, k - 1).run(
            workload, fleet_trace)
        if smaller.latency_percentile(0.95) <= PLAN_SLO_P95_S:
            return [f"k={k - 1} already meets the SLO; k={k} is not "
                    "the smallest fleet"]
        return []

    def monitor():
        series = timeseries.timeseries_from_report(state["report"])
        return timeseries.evaluate_slo(series, timeseries.SLOPolicy(
            latency_threshold_s=PLAN_SLO_P95_S,
            error_budget=PLAN_ERROR_BUDGET))

    def check_monitor(monitoring):
        outputs = {"alerts": len(monitoring.alerts),
                   "total_bad": int(monitoring.total_bad),
                   "total_requests": int(monitoring.total_requests)}
        problems = []
        if monitoring.total_requests != state["report"].n_served:
            problems.append("SLO report does not cover every request")
        return 0, outputs, problems

    return [Call("single", single, check_single),
            Call("plan", plan, check_plan, verify=verify),
            Call("monitor", monitor, check_monitor)]


def _plan_counters(outputs: Any) -> Dict[str, float]:
    if "alerts" in outputs:
        return {"timeseries.slo.alerts": outputs["alerts"]}
    return {}


def composite_scenario(horizon: float):
    """The ``bench-composite`` schedule scaled to ``horizon`` seconds:
    five windows covering every fault kind, two of them overlapping,
    with about 30% of the run left healthy."""
    from repro.faults.spec import FaultEvent, FaultKind, FaultScenario

    windows = ((FaultKind.PCIE_DOWNSHIFT, 0.06, 0.20, 0.6),
               (FaultKind.GPU_HBM_PRESSURE, 0.22, 0.18, 0.35),
               (FaultKind.PCIE_STALL, 0.33, 0.03, 0.05),
               (FaultKind.CXL_CONTENTION, 0.55, 0.20, 0.55),
               (FaultKind.CPU_PREEMPTION, 0.80, 0.10, 0.3))
    return FaultScenario(
        name="bench-composite", seed=7, chunks_per_request=12,
        events=tuple(FaultEvent(kind, start=start * horizon,
                                duration=duration * horizon,
                                magnitude=magnitude)
                     for kind, start, duration, magnitude in windows))


def _faults_prepare(ctx: Dict[str, Any], seed: int) -> List[Call]:
    from dataclasses import replace

    from repro.faults.spec import AdmissionPolicy
    from repro.serving import ServingSimulator
    from repro.serving.replicas import MultiReplicaSimulator

    mix_seed, trace_seed = subseeds(seed, 2)
    n = FAULT_REQUESTS
    workload = _mix(SERVING_SHAPES, n, mix_seed)
    trace = _poisson(n, FAULT_RATE, trace_seed)
    composite = composite_scenario(float(trace[-1]))
    admission = replace(composite, admission=AdmissionPolicy(
        max_queue_depth=FAULT_MAX_QUEUE_DEPTH,
        max_deferrals=FAULT_MAX_DEFERRALS))
    estimator = ctx["estimator"]

    def single(scenario):
        return lambda: ServingSimulator(estimator).run(
            workload, trace, scenario=scenario)

    def fleet():
        return MultiReplicaSimulator(estimator, FAULT_REPLICAS).run(
            workload, trace, scenario=composite)

    return [Call("composite", single(composite), _served(n)),
            Call("admission", single(admission), _served(n)),
            Call("fleet4", fleet, _served(n))]


def _fault_counters(outputs: Any) -> Dict[str, float]:
    stats = outputs.get("fault_stats")
    if not stats:
        return {}
    return {"faults.policy_shifts": stats["policy_shifts"],
            "faults.policy_resolves": stats["policy_resolves"],
            "faults.transfer_stalls": stats["transfer_stalls"],
            "faults.deferred": stats["deferred"],
            "faults.dropped": stats["dropped"]}


def _kv_requests(n: int, seed: int):
    """An equal share of every shape in seeded order: the trace, not
    the mix, varies with the seed, which keeps the cost per request of
    different seeds close."""
    import numpy as np
    from repro.models.workload import InferenceRequest

    shapes = [InferenceRequest(*shape) for shape in KV_SHAPES]
    order = np.random.default_rng(seed).permutation(
        np.arange(n) % len(shapes))
    return [shapes[int(i)] for i in order]


def _kv_prepare(ctx: Dict[str, Any], seed: int) -> List[Call]:
    from repro.cxl.residency import kv_capacities_from_system
    from repro.serving.scheduler import (ContinuousBatchScheduler,
                                         SchedulerConfig)

    estimator = ctx["kv_estimator"]
    config = SchedulerConfig(max_batch_requests=KV_MAX_BATCH)
    capacities = kv_capacities_from_system(estimator.spec,
                                           estimator.system)
    limits = dict(zip(("hbm", "ddr", "cxl"), capacities.as_tuple()))

    def check(report) -> Tuple[int, Any, List[str]]:
        n = KV_REQUESTS
        outputs = {
            "iterations": int(report.iterations),
            "admissions": int(report.admissions),
            "policy_resolves": int(report.policy_resolves),
            "occupancy_mean": float(report.occupancy_mean),
            "occupancy_peak": int(report.occupancy_peak),
            "kv_peak_bytes": _plain(report.kv_peak_bytes),
            "kv_demotions": int(report.kv_demotions),
            "kv_demoted_bytes": float(report.kv_demoted_bytes),
            "report": report_digest(report),
        }
        problems = []
        if len(report.served) != n:
            problems.append(f"served {len(report.served)} of {n} offered")
        arrivals, starts, finishes = _timeline(report)
        if (starts < arrivals).any() or (finishes < starts).any():
            problems.append("timeline breaks causality")
        for tier, peak in report.kv_peak_bytes.items():
            if peak > limits.get(tier, math.inf):
                problems.append(f"KV peak {peak:.3e} B exceeds the "
                                f"{tier} capacity")
        return n, outputs, problems

    mix_seed, trace_seed = subseeds(seed, 2)
    requests = _kv_requests(KV_REQUESTS, mix_seed)
    arrivals = _poisson(KV_REQUESTS, KV_RATE, trace_seed).tolist()
    return [Call("scheduler", lambda: ContinuousBatchScheduler(
        estimator, config).run(requests, arrivals), check)]


def _kv_counters(outputs: Any) -> Dict[str, float]:
    if "kv_peak_bytes" not in outputs:
        return {}
    peaks = outputs["kv_peak_bytes"]
    return {"scheduler.iterations": outputs["iterations"],
            "scheduler.admissions": outputs["admissions"],
            "scheduler.policy_resolves": outputs["policy_resolves"],
            "residency.demotions": outputs["kv_demotions"],
            "residency.demoted_bytes": outputs["kv_demoted_bytes"],
            "residency.peak_bytes.hbm": peaks.get("hbm", 0.0),
            "residency.peak_bytes.ddr": peaks.get("ddr", 0.0),
            "residency.peak_bytes.cxl": peaks.get("cxl", 0.0)}


def _serving_counters(outputs: Any) -> Dict[str, float]:
    return {**_plan_counters(outputs), **_fault_counters(outputs),
            **_kv_counters(outputs)}


#: Input sizes, stamped into the run manifest.
SIZES: Dict[str, Dict[str, Any]] = {
    "paper-grid": {"figures": list(FIGURES), "model": "grid defaults"},
    "capacity-plan": {"requests": PLAN_REQUESTS, "model": MODEL,
                      "shapes": SERVING_SHAPES,
                      "single_rate_per_s": PLAN_SINGLE_RATE,
                      "fleet_rate_per_s": PLAN_FLEET_RATE,
                      "slo_p95_s": PLAN_SLO_P95_S},
    "serve-faults": {"requests": FAULT_REQUESTS, "model": MODEL,
                     "shapes": SERVING_SHAPES, "rate_per_s": FAULT_RATE,
                     "replicas": FAULT_REPLICAS,
                     "max_queue_depth": FAULT_MAX_QUEUE_DEPTH},
    "continuous-kv": {"requests": KV_REQUESTS, "model": MODEL,
                      "shapes": KV_SHAPES, "rate_per_s": KV_RATE,
                      "max_batch": KV_MAX_BATCH, "system": "spr-a100+cxl2"},
}

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
#: The three serving workloads share one set-up (both estimators).
WORKLOADS: Dict[str, Workload] = {
    "paper-grid": Workload("paper-grid", _paper_setup, _paper_prepare,
                           row_outputs=True),
    "capacity-plan": Workload("capacity-plan", _serving_setup,
                              _plan_prepare, counters=_serving_counters),
    "serve-faults": Workload("serve-faults", _serving_setup,
                             _faults_prepare, counters=_serving_counters),
    "continuous-kv": Workload("continuous-kv", _serving_setup, _kv_prepare,
                              counters=_serving_counters),
}
