"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``models`` / ``systems`` — list the zoos.
* ``plan`` — choose policies and estimate one request.
* ``policy-map`` — print a Fig. 9-style policy grid.
* ``sweep`` — estimate a (batch, L_in, L_out) grid.
* ``trace`` — run a workload and write a Perfetto/Chrome trace plus
  a metrics summary (see docs/OBSERVABILITY.md).
* ``faults`` — run a degraded-serving simulation under a seeded
  fault scenario (see docs/ROBUSTNESS.md).
* ``serve`` — million-request serving simulation with
  multi-replica scale-out (see docs/PERFORMANCE.md).
* ``monitor`` — windowed serving observability: time-series metrics,
  SLO burn-rate alerts with fault attribution, Perfetto counter
  tracks, CSV, and an HTML dashboard (see docs/OBSERVABILITY.md).
* ``fleet`` — fleet resilience: replica chaos with health-checked
  failover and trace-driven reactive autoscaling (see
  docs/ROBUSTNESS.md).
* ``experiment`` — run experiment drivers and print (or export) the
  tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.core.optimizer import optimal_policy, policy_map
from repro.errors import ConfigurationError, ReproError
from repro.hardware.cpu import CPU_ZOO
from repro.hardware.gpu import GPU_ZOO
from repro.hardware.system import SYSTEM_ZOO, get_system
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import MODEL_ZOO, get_model


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LIA reproduction: cooperative AMX CPU-GPU LLM "
                    "inference with CXL offloading (ISCA 2025)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("models", help="list the model zoo")
    commands.add_parser("systems", help="list system configurations")
    commands.add_parser(
        "calibrate",
        help="verify the simulators against the paper's measured "
             "anchors")

    plan = commands.add_parser(
        "plan", help="choose policies and estimate one request")
    plan.add_argument("--model", default="opt-175b")
    plan.add_argument("--system", default="spr-h100")
    plan.add_argument("--batch", type=int, default=1)
    plan.add_argument("--input-len", type=int, default=256)
    plan.add_argument("--output-len", type=int, default=32)
    plan.add_argument("--enforce-memory", action="store_true",
                      help="fail on host-memory overflow instead of "
                           "using the analytical model")
    plan.add_argument("--cxl", action="store_true",
                      help="attach 2 CXL expanders and move weights "
                           "there (§6)")

    grid = commands.add_parser(
        "policy-map", help="print a Fig. 9-style policy grid")
    grid.add_argument("--model", default="opt-175b")
    grid.add_argument("--system", default="spr-a100")
    grid.add_argument("--stage", choices=["prefill", "decode"],
                      default="decode")
    grid.add_argument("--batches", type=int, nargs="+",
                      default=[1, 16, 64, 256, 900])
    grid.add_argument("--lengths", type=int, nargs="+",
                      default=[32, 256, 1024, 2048])

    sweep = commands.add_parser(
        "sweep", help="estimate a (batch, input-len, output-len) grid")
    sweep.add_argument("--model", default="opt-30b")
    sweep.add_argument("--system", default="spr-a100")
    sweep.add_argument("--batches", type=int, nargs="+",
                       default=[1, 16, 64])
    sweep.add_argument("--input-lens", type=int, nargs="+",
                       default=[32, 256, 1024])
    sweep.add_argument("--output-lens", type=int, nargs="+",
                       default=[32])
    sweep.add_argument("--json", default="",
                       help="also write the rows as JSON here")

    trace = commands.add_parser(
        "trace", help="run a workload and write a Perfetto/Chrome "
                      "trace (.trace.json) plus a metrics summary")
    trace.add_argument("--mode",
                       choices=["engine", "serving", "schedule"],
                       default="engine",
                       help="engine: functional CooperativeEngine run; "
                            "serving: FIFO queue simulation; schedule: "
                            "DES overlap schedule (Fig. 7)")
    trace.add_argument("--model", default="opt-tiny")
    trace.add_argument("--system", default="spr-a100")
    trace.add_argument("--batch", type=int, default=1)
    trace.add_argument("--input-len", type=int, default=8)
    trace.add_argument("--output-len", type=int, default=4)
    trace.add_argument("--requests", type=int, default=8,
                       help="serving mode: number of requests")
    trace.add_argument("--rate", type=float, default=1.0,
                       help="serving mode: Poisson arrival rate "
                            "(requests/s)")
    trace.add_argument("--prefill-policy", default="auto",
                       help="engine mode: 'auto' (Eq. 1 optimum) or a "
                            "6-bit vector like 011000 (1 = CPU)")
    trace.add_argument("--decode-policy", default="auto",
                       help="engine mode: same format as "
                            "--prefill-policy")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default="repro.trace.json",
                       help="trace path; the metrics summary lands "
                            "next to it as <name>.metrics.json")

    faults = commands.add_parser(
        "faults", help="run a serving simulation under a fault "
                       "scenario (degraded GPU/PCIe/CXL/CPU, see "
                       "docs/ROBUSTNESS.md)")
    faults.add_argument("--scenario", default="",
                        help="path to a scenario spec (JSON; YAML when "
                             "pyyaml is installed)")
    faults.add_argument("--preset", default="",
                        help="built-in scenario name (see "
                             "--list-presets)")
    faults.add_argument("--list-presets", action="store_true",
                        help="list built-in scenarios and exit")
    faults.add_argument("--model", default="opt-30b")
    faults.add_argument("--system", default="spr-a100")
    faults.add_argument("--requests", type=int, default=16)
    faults.add_argument("--rate", type=float, default=0.05,
                        help="Poisson arrival rate (requests/s)")
    faults.add_argument("--batch", type=int, default=8)
    faults.add_argument("--input-len", type=int, default=512)
    faults.add_argument("--output-len", type=int, default=64)
    faults.add_argument("--seed", type=int, default=0,
                        help="arrival-process seed (fault draws use "
                             "the scenario's own seed)")
    faults.add_argument("--out", default="",
                        help="write a Perfetto/Chrome trace here "
                             "(metrics summary lands next to it)")
    faults.add_argument("--json", default="",
                        help="write the machine-readable report here")

    serve = commands.add_parser(
        "serve", help="serving simulation: millions of "
                      "Poisson requests, optional replica scale-out "
                      "(see docs/PERFORMANCE.md)")
    serve.add_argument("--model", default="opt-30b")
    serve.add_argument("--system", default="spr-a100")
    serve.add_argument("--num-requests", type=int, default=100_000)
    serve.add_argument("--rate", type=float, default=0.05,
                       help="Poisson arrival rate (requests/s)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for both the shape mix and the "
                            "arrival process")
    serve.add_argument("--replicas", type=int, default=1,
                       help="fleet size (k independent FIFO servers)")
    serve.add_argument("--dispatch", choices=["round-robin",
                                              "least-loaded"],
                       default="round-robin")
    serve.add_argument("--shape", action="append", default=[],
                       metavar="B,L_IN,L_OUT",
                       help="request shape in the mix (repeatable); "
                            "default: a 4-shape tier-1 mix")
    serve.add_argument("--slo-p95", type=float, default=0.0,
                       help="instead of a fixed fleet, find the "
                            "smallest one whose p95 meets this SLO "
                            "(seconds)")
    serve.add_argument("--scheduler", choices=["fifo", "continuous"],
                       default="fifo",
                       help="serving policy: FIFO queue (default) or "
                            "iteration-level continuous batching with "
                            "KV-tier-aware admission")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="continuous scheduler: max requests "
                            "sharing the running batch")
    serve.add_argument("--join", choices=["step", "drain"],
                       default="step",
                       help="continuous scheduler: admit at every "
                            "decode step, or only into an empty "
                            "batch")
    serve.add_argument("--kv-hbm-gb", type=float, default=0.0,
                       help="override the HBM KV budget (GB); "
                            "0 derives it from the system")
    serve.add_argument("--kv-ddr-gb", type=float, default=0.0,
                       help="override the DDR KV budget (GB)")
    serve.add_argument("--kv-cxl-gb", type=float, default=0.0,
                       help="override the CXL KV budget (GB)")
    serve.add_argument("--kv-unbounded", action="store_true",
                       help="disable KV admission control entirely")
    serve.add_argument("--json", default="",
                       help="write the machine-readable report here")

    monitor = commands.add_parser(
        "monitor", help="windowed serving observability: time-series "
                        "metrics, SLO burn-rate alerts with fault "
                        "attribution, and exported dashboards (see "
                        "docs/OBSERVABILITY.md)")
    monitor.add_argument("--model", default="opt-30b")
    monitor.add_argument("--system", default="spr-a100")
    monitor.add_argument("--num-requests", type=int, default=20_000)
    monitor.add_argument("--rate", type=float, default=0.05,
                         help="Poisson arrival rate (requests/s)")
    monitor.add_argument("--seed", type=int, default=0,
                         help="seed for both the shape mix and the "
                              "arrival process")
    monitor.add_argument("--replicas", type=int, default=1,
                         help="fleet size; >1 adds the per-replica "
                              "dashboard section")
    monitor.add_argument("--dispatch", choices=["round-robin",
                                                "least-loaded"],
                         default="round-robin")
    monitor.add_argument("--shape", action="append", default=[],
                         metavar="B,L_IN,L_OUT",
                         help="request shape in the mix (repeatable); "
                              "default: a 4-shape tier-1 mix")
    monitor.add_argument("--preset", default="",
                         help="fault scenario preset (e.g. "
                              "gpu-pressure, pcie-flaky; see "
                              "`repro faults --list-presets`); runs "
                              "one server under it and "
                              "attributes alerts to its fault "
                              "windows")
    monitor.add_argument("--windows", type=int, default=256,
                         help="number of time windows in the series")
    monitor.add_argument("--slo-threshold", type=float, default=0.0,
                         help="bad-request latency threshold "
                              "(seconds); 0 auto-picks 1.25x the "
                              "run's p95")
    monitor.add_argument("--error-budget", type=float, default=0.05,
                         help="tolerated bad-request fraction")
    monitor.add_argument("--burn-threshold", type=float, default=2.0,
                         help="alert when both rolling burn rates "
                              "reach this multiple of budget")
    monitor.add_argument("--long-window", type=float, default=0.0,
                         help="long burn-rate lookback (seconds); "
                              "0 = 1/8 of the run")
    monitor.add_argument("--short-window", type=float, default=0.0,
                         help="short burn-rate lookback (seconds); "
                              "0 = 1/12 of the long window")
    monitor.add_argument("--out", default="",
                         help="write a Perfetto/Chrome trace with "
                              "counter tracks here")
    monitor.add_argument("--csv", default="",
                         help="write the windowed series as CSV here")
    monitor.add_argument("--html", default="",
                         help="write a self-contained HTML dashboard "
                              "here")
    monitor.add_argument("--json", default="",
                         help="write the machine-readable monitoring "
                              "report here")

    fleet = commands.add_parser(
        "fleet", help="fleet resilience simulation: replica chaos, "
                      "health-checked failover, and reactive "
                      "autoscaling over a workload trace (see "
                      "docs/ROBUSTNESS.md)")
    fleet.add_argument("--preset", default="bursty-chaos",
                       help="fleet preset pairing a trace with a "
                            "chaos scenario (see --list-presets)")
    fleet.add_argument("--list-presets", action="store_true",
                       help="list built-in fleet presets and exit")
    fleet.add_argument("--trace", default="",
                       help="override the trace: a preset name "
                            "(steady, diurnal, bursty, heavy-tail, "
                            "sessions) or a spec file (JSON; YAML "
                            "when pyyaml is installed)")
    fleet.add_argument("--chaos", default="",
                       help="override the chaos scenario: a preset "
                            "name (see `repro fleet --list-presets`) "
                            "or a spec file")
    fleet.add_argument("--model", default="opt-30b")
    fleet.add_argument("--system", default="spr-a100")
    fleet.add_argument("--num-requests", type=int, default=0,
                       help="override the trace's request count")
    fleet.add_argument("--replicas", type=int, default=0,
                       help="override the preset's initial fleet size")
    fleet.add_argument("--seed", type=int, default=0,
                       help="shape-mix seed (the trace carries its "
                            "own seed)")
    fleet.add_argument("--shape", action="append", default=[],
                       metavar="B,L_IN,L_OUT",
                       help="request shape in the mix (repeatable); "
                            "default: a 4-shape tier-1 mix")
    fleet.add_argument("--scheduler", choices=["fifo", "continuous"],
                       default="fifo",
                       help="per-replica serving policy; continuous "
                            "batching requires an idle chaos "
                            "scenario (e.g. --chaos none)")
    fleet.add_argument("--max-batch", type=int, default=8,
                       help="continuous scheduler: max requests "
                            "sharing each replica's running batch")
    fleet.add_argument("--windows", type=int, default=64,
                       help="time windows in the exported series")
    fleet.add_argument("--json", default="",
                       help="write the machine-readable fleet report "
                            "here")
    fleet.add_argument("--html", default="",
                       help="write a self-contained HTML dashboard "
                            "here")

    experiment = commands.add_parser(
        "experiment", help="run experiment drivers (paper tables and "
                           "figures)")
    experiment.add_argument("ids", nargs="*",
                            help="experiment ids, e.g. fig10 tab4; "
                                 "empty runs everything")
    experiment.add_argument("--list", action="store_true",
                            help="list available experiment ids")
    experiment.add_argument("--csv-dir", default="",
                            help="also export each result as CSV here")
    return parser


def _cmd_models() -> int:
    for name in sorted(MODEL_ZOO):
        print(MODEL_ZOO[name].describe())
    return 0


def _cmd_systems() -> int:
    for name in sorted(SYSTEM_ZOO):
        system = SYSTEM_ZOO[name]
        gpus = (system.gpu.name if system.n_gpus == 1
                else f"{system.n_gpus}x {system.gpu.name}")
        print(f"{name:>10}: {system.cpu.name} + {gpus} over "
              f"{system.host_link.name}  "
              f"(${system.price_usd:,.0f}, {system.tdp_watts:.0f} W)")
    print(f"\nCPUs: {', '.join(sorted(CPU_ZOO))}")
    print(f"GPUs: {', '.join(sorted(GPU_ZOO))}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=args.enforce_memory)
    if args.cxl:
        system = system.with_cxl(n_expanders=2)
        config = config.with_cxl_weights()
    estimator = LiaEstimator(spec, system, config)
    request = InferenceRequest(args.batch, args.input_len,
                               args.output_len)
    estimate = estimator.estimate(request)
    print(f"{spec.name} on {system.name}, B={args.batch}, "
          f"L_in={args.input_len}, L_out={args.output_len}")
    print(f"  prefill policy : {estimate.prefill_policy}")
    print(f"  decode policy  : {estimate.decode_policy}")
    print(f"  GPU-resident   : {estimate.residency.n_resident_layers}/"
          f"{estimate.residency.n_layers} layers")
    print(f"  latency        : {estimate.latency:.3f} s/query")
    print(f"  throughput     : {estimate.throughput:.2f} tokens/s")
    print(f"  host memory    : DDR {estimate.memory.ddr_bytes / 2**30:.1f}"
          f" GiB, CXL {estimate.memory.cxl_bytes / 2**30:.1f} GiB")
    breakdown = estimate.total
    print(f"  busy time      : CPU {breakdown.cpu_compute:.2f} s, GPU "
          f"{breakdown.gpu_compute:.2f} s, PCIe "
          f"{breakdown.transfer:.2f} s")
    return 0


def _cmd_policy_map(args: argparse.Namespace) -> int:
    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=False)
    stage = Stage(args.stage)
    policies = policy_map(spec, stage, args.batches, args.lengths,
                          system, config)
    header = "   B\\L " + "".join(f"{length:>22}" for length in args.lengths)
    print(f"{spec.name} on {system.name}, {stage.value} stage")
    print(header)
    for batch in args.batches:
        cells = [str(policies[batch, length]) for length in args.lengths]
        print(f"{batch:>6} " + "".join(f"{c:>22}" for c in cells))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = get_model(args.model)
    system = get_system(args.system)
    estimator = LiaEstimator(spec, system,
                             LiaConfig(enforce_host_capacity=False))
    points = [(batch, input_len, output_len)
              for batch in args.batches
              for input_len in args.input_lens
              for output_len in args.output_lens]
    estimates = [estimator.estimate(InferenceRequest(*point))
                 for point in points]
    print(f"{spec.name} on {system.name}: {len(points)} grid points")
    print(f"{'B':>6} {'L_in':>6} {'L_out':>6} {'latency_s':>12} "
          f"{'tokens_per_s':>14}  policy (prefill/decode)")
    rows = []
    for (batch, input_len, output_len), estimate in zip(points,
                                                        estimates):
        print(f"{batch:>6} {input_len:>6} "
              f"{output_len:>6} {estimate.latency:>12.4f} "
              f"{estimate.throughput:>14.2f}  "
              f"{estimate.prefill_policy}/{estimate.decode_policy}")
        rows.append({"batch_size": batch,
                     "input_len": input_len,
                     "output_len": output_len,
                     "latency_s": estimate.latency,
                     "tokens_per_s": estimate.throughput,
                     "prefill_policy": str(estimate.prefill_policy),
                     "decode_policy": str(estimate.decode_policy)})
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"model": spec.name, "system": system.name,
                       "rows": rows}, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _trace_metrics_path(out: str) -> str:
    if out.endswith(".trace.json"):
        return out[:-len(".trace.json")] + ".metrics.json"
    if out.endswith(".json"):
        return out[:-len(".json")] + ".metrics.json"
    return out + ".metrics.json"


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (Telemetry, activate, render_metrics,
                                 write_chrome_trace, write_metrics_json)

    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=False)
    telemetry = Telemetry()
    extra_events: List[dict] = []
    metadata = {"mode": args.mode, "model": spec.name,
                "system": system.name, "batch": args.batch,
                "input_len": args.input_len,
                "output_len": args.output_len}

    with activate(telemetry):
        if args.mode == "engine":
            import numpy as np

            from repro.inference.engine import CooperativeEngine
            from repro.inference.transformer import TinyTransformer

            if spec.total_param_bytes > 2 ** 30:
                raise ConfigurationError(
                    f"{spec.name} is too large for the functional "
                    "engine; trace a tiny spec (e.g. opt-tiny, "
                    "llama-tiny) or use --mode serving/schedule")
            from repro.core.policy import OffloadPolicy

            def stage_policy(spelled: str, stage: Stage) -> OffloadPolicy:
                if spelled == "auto":
                    return optimal_policy(spec, stage, args.batch,
                                          args.input_len, system,
                                          config).policy
                return OffloadPolicy.from_string(spelled)

            prefill = stage_policy(args.prefill_policy, Stage.PREFILL)
            decode = stage_policy(args.decode_policy, Stage.DECODE)
            metadata["prefill_policy"] = str(prefill)
            metadata["decode_policy"] = str(decode)
            model = TinyTransformer(spec, seed=args.seed)
            engine = CooperativeEngine(model, prefill, decode)
            prompt = (np.arange(args.batch * args.input_len)
                      % spec.vocab_size).reshape(args.batch,
                                                 args.input_len)
            result = engine.generate(prompt,
                                     max_new_tokens=args.output_len)
            metadata["pcie_bytes"] = result.pcie_bytes
            print(f"generated {result.tokens.size} tokens; "
                  f"{result.pcie_bytes} PCIe bytes over "
                  f"{len(result.transfers.records)} transfers")
        elif args.mode == "serving":
            from repro.serving.simulator import ServingSimulator

            simulator = ServingSimulator(LiaEstimator(spec, system,
                                                      config))
            requests = [InferenceRequest(args.batch, args.input_len,
                                         args.output_len)
                        for __ in range(args.requests)]
            report = simulator.run_poisson(requests,
                                           rate_per_s=args.rate,
                                           seed=args.seed)
            metadata["makespan_s"] = report.makespan
            print(f"served {report.n_served} requests in "
                  f"{report.makespan:.3f} s "
                  f"(utilization {report.utilization:.1%})")
        else:  # schedule
            from repro.core.overlap import build_stage_graph
            from repro.sim.engine import simulate

            decision = optimal_policy(spec, Stage.DECODE, args.batch,
                                      args.input_len, system, config)
            graph = build_stage_graph(decision.layer,
                                      n_layers=spec.n_layers)
            timeline = simulate(graph)
            extra_events = timeline.to_trace_events()
            for resource in graph.resources():
                telemetry.metrics.gauge(
                    "sim.utilization", resource=resource).set(
                        timeline.utilization(resource))
            metadata["makespan_s"] = timeline.makespan
            print(f"simulated {len(timeline)} tasks; makespan "
                  f"{timeline.makespan * 1e3:.3f} ms")

    trace_path = write_chrome_trace(args.out, telemetry.tracer.spans,
                                    extra_events=extra_events,
                                    metadata=metadata)
    metrics_path = write_metrics_json(
        _trace_metrics_path(args.out), telemetry.metrics,
        title=f"{args.mode} trace of {spec.name} on {system.name}")
    print(f"wrote {trace_path} (open in https://ui.perfetto.dev or "
          "chrome://tracing)")
    print(f"wrote {metrics_path}")
    print(render_metrics(telemetry.metrics))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import builtin_scenarios, get_scenario, load_scenario
    from repro.serving.simulator import ServingSimulator
    from repro.telemetry import (Telemetry, activate, write_chrome_trace,
                                 write_metrics_json)

    if args.list_presets:
        for name, scenario in sorted(builtin_scenarios().items()):
            kinds = ", ".join(sorted({e.kind.value
                                      for e in scenario.events}))
            extras = []
            if scenario.admission.enabled:
                extras.append(f"admission depth "
                              f"{scenario.admission.max_queue_depth}")
            print(f"{name:>16}: {kinds or 'no fault windows'}"
                  + (f" ({'; '.join(extras)})" if extras else ""))
        return 0
    if args.scenario and args.preset:
        raise ConfigurationError(
            "--scenario and --preset are mutually exclusive")
    scenario = None
    if args.scenario:
        scenario = load_scenario(args.scenario)
    elif args.preset:
        scenario = get_scenario(args.preset)

    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=False)
    telemetry = Telemetry() if args.out else None
    simulator = ServingSimulator(LiaEstimator(spec, system, config),
                                 telemetry=telemetry)
    requests = [InferenceRequest(args.batch, args.input_len,
                                 args.output_len)
                for __ in range(args.requests)]
    if telemetry is not None:
        with activate(telemetry):
            report = simulator.run_poisson(requests, rate_per_s=args.rate,
                                           seed=args.seed,
                                           scenario=scenario)
    else:
        report = simulator.run_poisson(requests, rate_per_s=args.rate,
                                       seed=args.seed, scenario=scenario)

    name = scenario.name if scenario is not None else "(fault-free)"
    print(f"{spec.name} on {system.name}, scenario {name}: "
          f"{report.n_served}/{args.requests} served")
    if report.n_served:
        print(f"  p50 latency  : {report.latency_percentile(0.50):.3f} s")
        print(f"  p95 latency  : {report.latency_percentile(0.95):.3f} s")
        print(f"  p99 latency  : {report.latency_percentile(0.99):.3f} s")
        print(f"  makespan     : {report.makespan:.3f} s "
              f"(utilization {report.utilization:.1%})")
    dropped = report.dropped
    stats = report.stats
    if stats is not None:
        print(f"  dropped      : {len(dropped)} "
              f"({report.drop_rate:.1%} of offered)")
        print(f"  fault events : {stats.total_faults} total")
        for key, value in stats.as_dict().items():
            if value:
                print(f"    {key:<18}: {value:g}")

    if args.out:
        metadata = {"mode": "faults", "model": spec.name,
                    "system": system.name, "scenario": name,
                    "served": report.n_served,
                    "dropped": len(dropped)}
        trace_path = write_chrome_trace(args.out,
                                        telemetry.tracer.spans,
                                        metadata=metadata)
        metrics_path = write_metrics_json(
            _trace_metrics_path(args.out), telemetry.metrics,
            title=f"fault scenario {name} of {spec.name} "
                  f"on {system.name}")
        print(f"wrote {trace_path}")
        print(f"wrote {metrics_path}")
    if args.json:
        import json

        from repro.faults import scenario_to_dict

        payload = {
            "model": spec.name, "system": system.name,
            "scenario": (scenario_to_dict(scenario)
                         if scenario is not None else None),
            "arrival_seed": args.seed, "rate_per_s": args.rate,
            "served": [{"batch_size": r.request.batch_size,
                        "input_len": r.request.input_len,
                        "output_len": r.request.output_len,
                        "arrival": r.arrival, "start": r.start,
                        "finish": r.finish}
                       for r in report.served],
            "dropped": [{"arrival": d.arrival, "reason": d.reason}
                        for d in dropped],
            "percentiles": ({"p50": report.latency_percentile(0.50),
                             "p95": report.latency_percentile(0.95),
                             "p99": report.latency_percentile(0.99)}
                            if report.n_served else None),
            "fault_stats": stats.as_dict() if stats is not None else None,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


_SERVE_DEFAULT_SHAPES = ((1, 128, 16), (1, 256, 32), (1, 512, 32),
                         (8, 256, 32))


def _parse_shape(spelled: str) -> InferenceRequest:
    parts = spelled.split(",")
    if len(parts) != 3:
        raise ConfigurationError(
            f"--shape wants B,L_IN,L_OUT, got {spelled!r}")
    try:
        batch, input_len, output_len = (int(part) for part in parts)
    except ValueError:
        raise ConfigurationError(
            f"--shape wants three integers, got {spelled!r}") from None
    return InferenceRequest(batch, input_len, output_len)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import (MultiReplicaSimulator, WorkloadVector,
                               plan_replicas)

    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=False)
    shapes = ([_parse_shape(spelled) for spelled in args.shape]
              or [InferenceRequest(*shape)
                  for shape in _SERVE_DEFAULT_SHAPES])
    workload = WorkloadVector.sample_mix(shapes, args.num_requests,
                                         seed=args.seed)

    if args.scheduler == "continuous":
        return _serve_continuous(args, spec, system, config, shapes,
                                 workload)

    if args.slo_p95 > 0.0:
        plan, report = plan_replicas(
            spec, workload, args.slo_p95, system_name=args.system,
            arrival_rate_per_s=args.rate, config=config,
            seed=args.seed, dispatch=args.dispatch)
        n_replicas = plan.n_replicas
        print(f"{spec.name} on {system.name}: smallest {args.dispatch} "
              f"fleet meeting p95 <= {args.slo_p95:g} s is "
              f"{n_replicas} replica(s) at ${plan.usd_per_hour:.2f}/h")
    else:
        n_replicas = args.replicas
        simulator = MultiReplicaSimulator(
            LiaEstimator(spec, system, config), n_replicas,
            dispatch=args.dispatch)
        report = simulator.run_poisson(workload, args.rate,
                                       seed=args.seed)

    streaming = report.merged.streaming_percentiles
    mode = "streaming" if streaming else "exact"
    print(f"served {report.n_served:,} requests on {n_replicas} "
          f"replica(s), {args.dispatch} dispatch "
          f"({mode} percentiles)")
    p50 = report.latency_percentile(0.50)
    p95 = report.latency_percentile(0.95)
    p99 = report.latency_percentile(0.99)
    print(f"  p50/p95/p99  : {p50:.3f} / {p95:.3f} / {p99:.3f} s")
    print(f"  queue delay  : {report.mean_queue_delay:.3f} s mean")
    print(f"  makespan     : {report.makespan:.3f} s "
          f"(fleet utilization {report.utilization:.1%})")
    print(f"  throughput   : {report.throughput_tokens_per_s:.2f} "
          f"tokens/s")
    per_replica = ", ".join(
        f"[{replica}] {utilization:.1%}"
        for replica, utilization in zip(report.replica_ids,
                                        report.replica_utilizations))
    if n_replicas > 1:
        print(f"  per-replica  : {per_replica}")

    if args.json:
        import json

        payload = {
            "model": spec.name, "system": system.name,
            "num_requests": args.num_requests, "rate_per_s": args.rate,
            "seed": args.seed, "replicas": n_replicas,
            "dispatch": args.dispatch, "streaming": streaming,
            "shapes": [[request.batch_size, request.input_len,
                        request.output_len] for request in shapes],
            "slo_p95_s": args.slo_p95 or None,
            "percentiles": {"p50": p50, "p95": p95, "p99": p99},
            "mean_queue_delay_s": report.mean_queue_delay,
            "makespan_s": report.makespan,
            "utilization": report.utilization,
            "throughput_tokens_per_s": report.throughput_tokens_per_s,
            "replica_utilizations": dict(
                zip(map(str, report.replica_ids),
                    report.replica_utilizations)),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _serve_continuous(args: argparse.Namespace, spec, system, config,
                      shapes, workload) -> int:
    from repro.cxl.residency import KvTierCapacities
    from repro.serving import run_continuous_fleet
    from repro.serving.scheduler import SchedulerConfig
    from repro.serving.simulator import arrivals_poisson

    if args.slo_p95 > 0.0:
        raise ConfigurationError(
            "--slo-p95 fleet sizing runs on the FIFO engines; drop "
            "it with --scheduler continuous")

    kv_capacities = None
    if (args.kv_hbm_gb > 0.0 or args.kv_ddr_gb > 0.0
            or args.kv_cxl_gb > 0.0):
        kv_capacities = KvTierCapacities(
            hbm_bytes=args.kv_hbm_gb * 1e9,
            ddr_bytes=args.kv_ddr_gb * 1e9,
            cxl_bytes=args.kv_cxl_gb * 1e9)
    scheduler_config = SchedulerConfig(
        max_batch_requests=args.max_batch, join=args.join,
        kv_capacities=kv_capacities,
        kv_unbounded=bool(args.kv_unbounded))
    estimator = LiaEstimator(spec, system, config)
    arrivals = arrivals_poisson(args.num_requests, args.rate,
                                seed=args.seed)
    report = run_continuous_fleet(estimator, workload, arrivals,
                                  args.replicas,
                                  scheduler_config=scheduler_config)

    mode = ("fifo-degenerate"
            if scheduler_config.is_fifo_degenerate else args.join)
    print(f"served {report.n_served:,} requests on "
          f"{args.replicas} replica(s), continuous batching "
          f"(max batch {args.max_batch}, join {mode})")
    p50 = report.latency_percentile(0.50)
    p95 = report.latency_percentile(0.95)
    p99 = report.latency_percentile(0.99)
    print(f"  p50/p95/p99  : {p50:.3f} / {p95:.3f} / {p99:.3f} s")
    print(f"  queue delay  : {report.mean_queue_delay:.3f} s mean")
    print(f"  makespan     : {report.makespan:.3f} s "
          f"(utilization {report.utilization:.1%})")
    print(f"  throughput   : {report.throughput_tokens_per_s:.2f} "
          f"tokens/s")
    print(f"  batching     : {report.iterations:,} iterations, "
          f"occupancy {report.occupancy_mean:.2f} mean / "
          f"{report.occupancy_peak} peak, "
          f"{report.policy_resolves} policy re-solves")
    kv_line = ", ".join(f"{tier} {peak / 1e9:.2f} GB"
                        for tier, peak
                        in report.kv_peak_bytes.items())
    print(f"  kv peak      : {kv_line}; "
          f"{report.kv_demotions} demotion(s)")

    if args.json:
        import json

        payload = {
            "model": spec.name, "system": system.name,
            "num_requests": args.num_requests, "rate_per_s": args.rate,
            "seed": args.seed, "replicas": args.replicas,
            "scheduler": "continuous",
            "shapes": [[request.batch_size, request.input_len,
                        request.output_len] for request in shapes],
            "percentiles": {"p50": p50, "p95": p95, "p99": p99},
            "mean_queue_delay_s": report.mean_queue_delay,
            "makespan_s": report.makespan,
            "utilization": report.utilization,
            "throughput_tokens_per_s": report.throughput_tokens_per_s,
            "batching": {
                "max_batch_requests": args.max_batch,
                "join": args.join,
                "fifo_degenerate":
                    scheduler_config.is_fifo_degenerate,
                "iterations": report.iterations,
                "admissions": report.admissions,
                "occupancy_mean": report.occupancy_mean,
                "occupancy_peak": report.occupancy_peak,
                "policy_resolves": report.policy_resolves,
                "kv_peak_bytes": report.kv_peak_bytes,
                "kv_demotions": report.kv_demotions,
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.serving import MultiReplicaSimulator, WorkloadVector
    from repro.serving.simulator import ServingSimulator
    from repro.telemetry import (SLOPolicy, Telemetry, activate,
                                 evaluate_slo, fleet_timeseries,
                                 monitor_report,
                                 timeseries_to_counter_events,
                                 write_chrome_trace,
                                 write_dashboard_html,
                                 write_timeseries_csv)

    if args.preset and args.replicas > 1:
        raise ConfigurationError(
            "--preset runs a single server under the fault "
            "scenario; use --replicas 1 with it")
    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=False)
    estimator = LiaEstimator(spec, system, config)
    shapes = ([_parse_shape(spelled) for spelled in args.shape]
              or [InferenceRequest(*shape)
                  for shape in _SERVE_DEFAULT_SHAPES])
    workload = WorkloadVector.sample_mix(shapes, args.num_requests,
                                         seed=args.seed)

    scenario = None
    telemetry = Telemetry()
    with activate(telemetry):
        if args.preset:
            from repro.faults import get_scenario

            scenario = get_scenario(args.preset)
            report = ServingSimulator(estimator).run_poisson(
                workload, args.rate, seed=args.seed,
                scenario=scenario)
        elif args.replicas > 1:
            report = MultiReplicaSimulator(
                estimator, args.replicas,
                dispatch=args.dispatch).run_poisson(
                    workload, args.rate, seed=args.seed)
        else:
            report = ServingSimulator(estimator).run_poisson(
                workload, args.rate, seed=args.seed)

    threshold = args.slo_threshold
    auto_threshold = threshold <= 0.0
    if auto_threshold:
        threshold = 1.25 * report.latency_percentile(0.95)
    policy = SLOPolicy(latency_threshold_s=threshold,
                       error_budget=args.error_budget,
                       long_window_s=args.long_window,
                       short_window_s=args.short_window,
                       burn_rate_threshold=args.burn_threshold)

    fleet = None
    if args.replicas > 1:
        fleet = fleet_timeseries(report, n_windows=args.windows)
        monitoring = evaluate_slo(fleet.merged, policy)
    else:
        monitoring = monitor_report(report, policy,
                                    n_windows=args.windows)
    series = monitoring.timeseries

    source = "auto: 1.25 x p95" if auto_threshold else "given"
    served = int(series.finished.sum())
    print(f"monitored {served:,} requests on {spec.name} / "
          f"{system.name} over {series.n_windows} windows of "
          f"{series.grid.window_s:.1f} s")
    if scenario is not None:
        print(f"  scenario     : {scenario.name} "
              f"({len(scenario.events)} fault window(s))")
    print(f"  SLO threshold: {threshold:.3f} s ({source}), budget "
          f"{policy.error_budget:.1%}, alert at "
          f"{policy.burn_rate_threshold:g}x burn")
    print(f"  bad requests : {monitoring.total_bad:,} "
          f"({monitoring.bad_fraction:.2%}) -> "
          f"{monitoring.budget_spent:.0%} of budget")
    print(f"  alerts       : {len(monitoring.alerts)}")
    for alert in monitoring.alerts:
        detail = alert.cause
        primary = alert.attributions[0] if alert.attributions else None
        if primary is not None and primary.cause != "organic-load":
            detail += (f" (overlap {primary.overlap_s:.1f} s, "
                       f"magnitude {primary.magnitude:g})")
        print(f"    [{alert.start_s:9.1f} - {alert.end_s:9.1f}] s  "
              f"burn {alert.peak_burn_long:.1f}x/"
              f"{alert.peak_burn_short:.1f}x  "
              f"bad {alert.n_bad}/{alert.n_requests}  {detail}")

    metadata = {"model": spec.name, "system": system.name,
                "num_requests": args.num_requests,
                "rate_per_s": args.rate, "seed": args.seed,
                "replicas": args.replicas,
                "scenario": args.preset or None}
    if args.out:
        path = write_chrome_trace(
            args.out, telemetry.tracer.spans,
            extra_events=timeseries_to_counter_events(series),
            metadata={key: value for key, value in metadata.items()
                      if value is not None})
        print(f"wrote {path} (open in https://ui.perfetto.dev or "
              "chrome://tracing)")
    if args.csv:
        path = write_timeseries_csv(
            args.csv, series, monitoring=monitoring,
            title=f"{spec.name} on {system.name}")
        print(f"wrote {path}")
    if args.html:
        path = write_dashboard_html(
            args.html, monitoring, fleet=fleet,
            title=f"{spec.name} on {system.name}",
            metadata=metadata)
        print(f"wrote {path}")
    if args.json:
        import json

        payload = dict(metadata)
        payload.update({
            "windows": series.n_windows,
            "window_s": series.grid.window_s,
            "slo_threshold_s": threshold,
            "slo_threshold_auto": auto_threshold,
            "monitoring": monitoring.to_dict(),
            "series": series.to_dict(),
        })
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import os

    from repro.energy.cost import CostModel
    from repro.faults.fleet import (builtin_fleet_scenarios,
                                    get_fleet_scenario,
                                    load_fleet_scenario)
    from repro.serving import WorkloadVector, builtin_fleet_presets, \
        get_fleet_preset
    from repro.workloads import builtin_traces, get_trace, load_trace

    if args.list_presets:
        for name, preset in builtin_fleet_presets().items():
            mode = ("autoscale" if preset.autoscaler is not None
                    else f"{preset.n_replicas} replicas")
            print(f"{name}: trace={preset.trace.name} "
                  f"chaos={preset.chaos.name} {mode}, "
                  f"{preset.dispatch}")
        print(f"traces: {', '.join(sorted(builtin_traces()))}")
        print("chaos scenarios: "
              f"{', '.join(sorted(builtin_fleet_scenarios()))}")
        return 0

    preset = get_fleet_preset(args.preset)
    trace_spec = preset.trace
    if args.trace:
        trace_spec = (load_trace(args.trace)
                      if os.path.exists(args.trace)
                      else get_trace(args.trace))
    chaos = preset.chaos
    if args.chaos:
        chaos = (load_fleet_scenario(args.chaos)
                 if os.path.exists(args.chaos)
                 else get_fleet_scenario(args.chaos))
    if args.num_requests > 0:
        trace_spec = trace_spec.scaled(args.num_requests)
    n_replicas = args.replicas or preset.n_replicas

    spec = get_model(args.model)
    system = get_system(args.system)
    estimator = LiaEstimator(spec, system,
                             LiaConfig(enforce_host_capacity=False))
    shapes = ([_parse_shape(spelled) for spelled in args.shape]
              or [InferenceRequest(*shape)
                  for shape in _SERVE_DEFAULT_SHAPES])
    workload = WorkloadVector.sample_mix(
        shapes, trace_spec.n_requests, seed=args.seed)
    arrivals = trace_spec.generate()

    if args.scheduler == "continuous":
        if not chaos.idle:
            raise ConfigurationError(
                f"the continuous scheduler has no chaos-injected "
                f"variant yet; scenario {chaos.name!r} is not idle "
                "(pass --chaos none)")
        return _fleet_continuous(args, spec, system, estimator,
                                 trace_spec, chaos, workload,
                                 arrivals, n_replicas)

    from repro.serving import FleetSimulator

    simulator = FleetSimulator(
        estimator, n_replicas=n_replicas, scenario=chaos,
        autoscaler=preset.autoscaler, dispatch=preset.dispatch)
    report = simulator.run(workload, arrivals)
    stats = report.stats
    usd_per_hour = CostModel(system).usd_per_hour()

    print(f"fleet {args.preset}: {spec.name} on {system.name}, "
          f"trace {trace_spec.name} ({report.n_offered:,} requests), "
          f"chaos {chaos.name}, {preset.dispatch} dispatch")
    print(f"  served/dropped : {report.n_served:,} / "
          f"{report.n_dropped:,} "
          f"(availability {report.availability:.4%})")
    print(f"  failover       : {stats.retries} retries, "
          f"{stats.redispatched} re-dispatched, "
          f"{stats.hedges} hedges ({stats.hedge_wins} won), "
          f"{stats.breaker_ejections} breaker ejection(s)")
    counts = report.replica_counts()
    print(f"  replicas       : start {report.n_replicas_initial}, "
          f"min {int(counts.min())}, max {int(counts.max())}, "
          f"{stats.scale_ups} scale-up(s) / "
          f"{stats.scale_downs} drain decision(s)")
    p50 = report.latency_percentile(0.50)
    p95 = report.latency_percentile(0.95)
    print(f"  p50/p95        : {p50:.3f} / {p95:.3f} s "
          f"(SLO p95 <= {preset.slo_p95_s:g} s)")
    per_class = report.per_class_p95()
    spelled = ", ".join(f"{name}: {value:.2f} s"
                        for name, value in sorted(per_class.items()))
    print(f"  per-class p95  : {spelled}")
    cost = report.cost_per_million_requests(usd_per_hour)
    print(f"  cost           : {report.replica_seconds:,.0f} "
          f"replica-seconds, ${cost:,.2f} per million requests")

    if args.json:
        import json

        payload = {
            "preset": args.preset, "model": spec.name,
            "system": system.name, "trace": trace_spec.name,
            "dispatch": preset.dispatch,
            "n_replicas_initial": report.n_replicas_initial,
            "slo_p95_s": preset.slo_p95_s,
            "p50_s": p50, "p95_s": p95,
            "usd_per_hour_per_replica": usd_per_hour,
            "cost_per_million_requests_usd": cost,
        }
        payload.update(report.to_dict())
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    if args.html:
        from repro.telemetry import (SLOPolicy, evaluate_slo,
                                     write_dashboard_html)

        series = report.timeseries(n_windows=args.windows)
        monitoring = evaluate_slo(
            series, SLOPolicy(latency_threshold_s=preset.slo_p95_s))
        path = write_dashboard_html(
            args.html, monitoring,
            title=f"fleet {args.preset}: {spec.name} on "
                  f"{system.name}",
            metadata={"preset": args.preset, "trace": trace_spec.name,
                      "chaos": chaos.name,
                      "availability": f"{report.availability:.4%}"})
        print(f"wrote {path}")
    return 0


def _fleet_continuous(args: argparse.Namespace, spec, system,
                      estimator, trace_spec, chaos, workload,
                      arrivals, n_replicas: int) -> int:
    from repro.energy.cost import CostModel
    from repro.serving import run_continuous_fleet
    from repro.serving.scheduler import SchedulerConfig

    if args.html:
        raise ConfigurationError(
            "--html renders the chaos/autoscaler dashboard; it is "
            "not wired to the continuous scheduler yet")
    scheduler_config = SchedulerConfig(
        max_batch_requests=args.max_batch)
    report = run_continuous_fleet(estimator, workload, arrivals,
                                  n_replicas,
                                  scheduler_config=scheduler_config)
    usd_per_hour = CostModel(system).usd_per_hour()

    print(f"fleet {args.preset}: {spec.name} on {system.name}, "
          f"trace {trace_spec.name} ({report.n_served:,} "
          f"requests), chaos {chaos.name} (idle), continuous "
          f"batching x{n_replicas} replica(s)")
    p50 = report.latency_percentile(0.50)
    p95 = report.latency_percentile(0.95)
    print(f"  p50/p95        : {p50:.3f} / {p95:.3f} s")
    print(f"  batching       : {report.iterations:,} iterations, "
          f"occupancy {report.occupancy_mean:.2f} mean / "
          f"{report.occupancy_peak} peak, "
          f"{report.policy_resolves} policy re-solves")
    print(f"  throughput     : "
          f"{report.throughput_tokens_per_s:.2f} tokens/s over a "
          f"{report.makespan:,.0f} s makespan")
    replica_seconds = report.makespan * n_replicas
    cost = (usd_per_hour / 3600.0) * replica_seconds
    print(f"  cost           : {replica_seconds:,.0f} "
          f"replica-seconds, ${cost:,.2f}")

    if args.json:
        import json

        payload = {
            "preset": args.preset, "model": spec.name,
            "system": system.name, "trace": trace_spec.name,
            "scheduler": "continuous", "chaos": chaos.name,
            "n_replicas_initial": n_replicas,
            "n_offered": report.n_served,
            "n_served": report.n_served, "n_dropped": 0,
            "availability": 1.0,
            "p50_s": p50, "p95_s": p95,
            "makespan_s": report.makespan,
            "throughput_tokens_per_s":
                report.throughput_tokens_per_s,
            "usd_per_hour_per_replica": usd_per_hour,
            "batching": {
                "max_batch_requests": args.max_batch,
                "iterations": report.iterations,
                "occupancy_mean": report.occupancy_mean,
                "occupancy_peak": report.occupancy_peak,
                "policy_resolves": report.policy_resolves,
                "kv_peak_bytes": report.kv_peak_bytes,
                "kv_demotions": report.kv_demotions,
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.export import default_drivers, to_csv

    drivers = default_drivers()
    if args.list:
        print("\n".join(sorted(drivers)))
        return 0
    selected = args.ids or sorted(drivers)
    unknown = [name for name in selected if name not in drivers]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for name in selected:
        result = drivers[name]()
        print(result.render())
        print()
        if args.csv_dir:
            path = to_csv(result, f"{args.csv_dir}/{name}.csv")
            print(f"  wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models()
        if args.command == "systems":
            return _cmd_systems()
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "policy-map":
            return _cmd_policy_map(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "calibrate":
            from repro.validation import calibration_ok, render_report
            print(render_report())
            return 0 if calibration_ok() else 1
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "monitor":
            return _cmd_monitor(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
