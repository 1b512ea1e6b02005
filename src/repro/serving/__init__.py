"""Serving layer built on the LIA estimators.

The paper evaluates fixed (B, L_in, L_out) points; production use
needs the two wrappers this package provides:

* :mod:`repro.serving.batcher` — pack a corpus of variable-length
  requests into memory-feasible batches for offline (throughput-
  driven) inference.
* :mod:`repro.serving.simulator` — replay an online arrival trace
  through a FIFO-queued single-system server, reporting latency
  percentiles and utilization in one columnar :class:`ServingReport`.
* :mod:`repro.serving.planner` — pick the cheapest system that meets
  a latency SLO for a workload (the §7.6/§7.8 decision problem as an
  API).
* :mod:`repro.serving.vectorized` — columnar workloads and the exact
  Lindley-recursion timeline kernel.
* :mod:`repro.serving.piecewise` — the one FIFO engine: piecewise-
  Lindley segments over the fault regimes (a healthy run is a single
  segment), bit-identical to the per-request reference loops kept in
  ``tests/oracles/fifo_loop.py``.
* :mod:`repro.serving.replicas` — k-replica scale-out (round-robin /
  least-loaded dispatch, optionally under a fault scenario) and
  SLO-driven fleet sizing.
* :mod:`repro.serving.fleet` — the control plane under test: replica
  chaos, circuit-breaker failover with re-dispatch/hedging, and a
  reactive autoscaler driven by the workload-trace layer.
* :mod:`repro.serving.scheduler` — iteration-level continuous
  batching (ORCA-style): requests join/leave the running batch each
  decode step, KV bytes are admitted against tiered HBM/DDR/CXL
  capacity, and Eq. (1) is re-solved as the batch composition
  changes.
"""

from repro.serving.batcher import Batch, pack_requests
from repro.serving.degradation import FaultStats
from repro.serving.fleet import (AutoscalerPolicy, ChaosStats,
                                 FleetPreset, FleetReport,
                                 builtin_fleet_presets, get_fleet_preset)
from repro.serving.piecewise import run_fifo
from repro.serving.planner import PlanChoice, choose_system
from repro.serving.replicas import (MultiReplicaSimulator,
                                    ScaleOutReport, replicas_needed)
from repro.serving.scheduler import (MIXED_SHAPES,
                                     ContinuousBatchScheduler,
                                     ContinuousServingReport,
                                     SchedulerConfig, StepProfile,
                                     run_continuous_fleet)
from repro.serving.simulator import (DroppedRequest, ServedRequest,
                                     ServingReport, ServingSimulator,
                                     validate_arrivals)
from repro.serving.vectorized import WorkloadVector, lindley_timeline
from repro.workloads.traces import arrivals_poisson

__all__ = [
    "AutoscalerPolicy",
    "ChaosStats",
    "FleetPreset",
    "FleetReport",
    "builtin_fleet_presets",
    "get_fleet_preset",
    "DroppedRequest",
    "FaultStats",
    "run_fifo",
    "Batch",
    "pack_requests",
    "ServedRequest",
    "ServingReport",
    "ServingSimulator",
    "arrivals_poisson",
    "validate_arrivals",
    "PlanChoice",
    "choose_system",
    "MultiReplicaSimulator",
    "ScaleOutReport",
    "replicas_needed",
    "WorkloadVector",
    "lindley_timeline",
    "MIXED_SHAPES",
    "ContinuousBatchScheduler",
    "ContinuousServingReport",
    "SchedulerConfig",
    "StepProfile",
    "run_continuous_fleet",
]
