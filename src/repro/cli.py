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
import json
import sys
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator, only_estimate
from repro.core.optimizer import optimal_policy, policy_map
from repro.errors import ConfigurationError, ReproError
from repro.hardware.cpu import CPU_ZOO
from repro.hardware.gpu import GPU_ZOO
from repro.hardware.system import SYSTEM_ZOO, get_system
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import MODEL_ZOO, get_model

_PERFETTO_HINT = " (open in https://ui.perfetto.dev or chrome://tracing)"
_DEFAULT_SHAPES = ((1, 128, 16), (1, 256, 32), (1, 512, 32), (8, 256, 32))


def _model_flags(model: str = "opt-30b",
                 system: str = "spr-a100") -> argparse.ArgumentParser:
    """``--model``/``--system`` with one subcommand's defaults: one parent
    per subcommand, as children share their parent's Action objects."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--model", default=model)
    flags.add_argument("--system", default=system)
    return flags


def _stream_flags(num_requests: int) -> argparse.ArgumentParser:
    """The Poisson stream and fleet flags of ``serve`` and ``monitor``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--num-requests", type=int, default=num_requests)
    flags.add_argument("--rate", type=float, default=0.05,
                       help="Poisson arrival rate (requests/s)")
    flags.add_argument("--seed", type=int, default=0,
                       help="seed for both the shape mix and the "
                            "arrival process")
    flags.add_argument("--replicas", type=int, default=1,
                       help="fleet size (k independent FIFO servers)")
    flags.add_argument("--dispatch", choices=["round-robin",
                                              "least-loaded"],
                       default="round-robin")
    return flags


def _request_flags(batch: int, input_len: int, output_len: int,
                   requests: int, rate: float,
                   out: str) -> argparse.ArgumentParser:
    """One request shape served ``--requests`` times (``trace`` and
    ``faults``)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--batch", type=int, default=batch)
    flags.add_argument("--input-len", type=int, default=input_len)
    flags.add_argument("--output-len", type=int, default=output_len)
    flags.add_argument("--requests", type=int, default=requests,
                       help="serving: number of requests")
    flags.add_argument("--rate", type=float, default=rate,
                       help="serving: Poisson arrival rate (requests/s)")
    flags.add_argument("--seed", type=int, default=0,
                       help="arrival seed (engine mode: weight seed); "
                            "fault draws use the scenario's own seed")
    flags.add_argument("--out", default=out,
                       help="write a Perfetto/Chrome trace here; the "
                            "metrics summary lands next to it as "
                            "<name>.metrics.json")
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LIA reproduction: cooperative AMX CPU-GPU LLM "
                    "inference with CXL offloading (ISCA 2025)")
    commands = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", default="",
                           help="write the machine-readable report here")
    html_flag = argparse.ArgumentParser(add_help=False)
    html_flag.add_argument("--html", default="",
                           help="write a self-contained HTML dashboard here")
    batching_flags = argparse.ArgumentParser(add_help=False)
    batching_flags.add_argument(
        "--scheduler", choices=["fifo", "continuous"], default="fifo",
        help="serving policy: FIFO queue (default) or iteration-level "
             "continuous batching with KV-tier-aware admission (fleet: "
             "needs an idle chaos scenario, e.g. --chaos none)")
    batching_flags.add_argument("--max-batch", type=int, default=8,
                                help="continuous scheduler: max requests "
                                     "sharing each running batch")
    shape_flag = argparse.ArgumentParser(add_help=False)
    shape_flag.add_argument("--shape", action="append", default=[],
                            metavar="B,L_IN,L_OUT",
                            help="request shape in the mix (repeatable); "
                                 "default: a 4-shape tier-1 mix")

    commands.add_parser("models", help="list the model zoo")
    commands.add_parser("systems", help="list system configurations")
    commands.add_parser("calibrate", help="verify the simulators against "
                                          "the paper's measured anchors")

    plan = commands.add_parser(
        "plan", parents=[_model_flags("opt-175b", "spr-h100")],
        help="choose policies and estimate one request")
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
        "policy-map", parents=[_model_flags("opt-175b")],
        help="print a Fig. 9-style policy grid")
    grid.add_argument("--stage", choices=["prefill", "decode"],
                      default="decode")
    grid.add_argument("--batches", type=int, nargs="+",
                      default=[1, 16, 64, 256, 900])
    grid.add_argument("--lengths", type=int, nargs="+",
                      default=[32, 256, 1024, 2048])

    sweep = commands.add_parser(
        "sweep", parents=[_model_flags(), json_flag],
        help="estimate a (batch, input-len, output-len) grid")
    sweep.add_argument("--batches", type=int, nargs="+",
                       default=[1, 16, 64])
    sweep.add_argument("--input-lens", type=int, nargs="+",
                       default=[32, 256, 1024])
    sweep.add_argument("--output-lens", type=int, nargs="+",
                       default=[32])

    trace = commands.add_parser(
        "trace", parents=[_model_flags("opt-tiny"),
                          _request_flags(1, 8, 4, 8, 1.0,
                                         "repro.trace.json")],
        help="run a workload and write a Perfetto/Chrome trace "
             "(.trace.json) plus a metrics summary")
    trace.add_argument("--mode",
                       choices=["engine", "serving", "schedule"],
                       default="engine",
                       help="engine: functional CooperativeEngine run; "
                            "serving: FIFO queue simulation; schedule: "
                            "DES overlap schedule (Fig. 7)")
    trace.add_argument("--prefill-policy", default="auto",
                       help="engine mode: 'auto' (Eq. 1 optimum) or a "
                            "6-bit vector like 011000 (1 = CPU)")
    trace.add_argument("--decode-policy", default="auto",
                       help="engine mode: same format as --prefill-policy")

    faults = commands.add_parser(
        "faults", parents=[_model_flags(), json_flag,
                           _request_flags(8, 512, 64, 16, 0.05, "")],
        help="run a serving simulation under a fault scenario "
             "(degraded GPU/PCIe/CXL/CPU, see docs/ROBUSTNESS.md)")
    faults.add_argument("--scenario", default="",
                        help="path to a scenario spec (JSON; YAML when "
                             "pyyaml is installed)")
    faults.add_argument("--preset", default="",
                        help="built-in scenario name (see --list-presets)")
    faults.add_argument("--list-presets", action="store_true",
                        help="list built-in scenarios and exit")

    serve = commands.add_parser(
        "serve", parents=[_model_flags(), _stream_flags(100_000),
                          shape_flag, batching_flags, json_flag],
        help="serving simulation: millions of Poisson requests, "
             "optional replica scale-out (see docs/PERFORMANCE.md)")
    serve.add_argument("--slo-p95", type=float, default=0.0,
                       help="instead of a fixed fleet, find the smallest "
                            "one whose p95 meets this SLO (seconds)")
    serve.add_argument("--join", choices=["step", "drain"],
                       default="step",
                       help="continuous scheduler: admit at every decode "
                            "step, or only into an empty batch")
    for tier in ("hbm", "ddr", "cxl"):
        serve.add_argument(f"--kv-{tier}-gb", type=float, default=0.0,
                           help=f"override the {tier.upper()} KV budget "
                                "(GB); 0 derives it from the system")
    serve.add_argument("--kv-unbounded", action="store_true",
                       help="disable KV admission control entirely")

    monitor = commands.add_parser(
        "monitor", parents=[_model_flags(), _stream_flags(20_000),
                            shape_flag, json_flag, html_flag],
        help="windowed serving observability: time-series metrics, "
             "SLO burn-rate alerts with fault attribution, and "
             "exported dashboards (see docs/OBSERVABILITY.md)")
    monitor.add_argument("--preset", default="",
                         help="fault scenario preset (e.g. gpu-pressure, "
                              "pcie-flaky; see `repro faults "
                              "--list-presets`); runs one server under "
                              "it and attributes alerts to its windows")
    monitor.add_argument("--windows", type=int, default=256,
                         help="number of time windows in the series")
    monitor.add_argument("--slo-threshold", type=float, default=0.0,
                         help="bad-request latency threshold (seconds); "
                              "0 auto-picks 1.25x the run's p95")
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

    fleet = commands.add_parser(
        "fleet", parents=[_model_flags(), shape_flag, batching_flags,
                          json_flag, html_flag],
        help="fleet resilience simulation: replica chaos, "
             "health-checked failover, and reactive autoscaling over "
             "a workload trace (see docs/ROBUSTNESS.md)")
    fleet.add_argument("--preset", default="bursty-chaos",
                       help="fleet preset pairing a trace with a "
                            "chaos scenario (see --list-presets)")
    fleet.add_argument("--list-presets", action="store_true",
                       help="list built-in fleet presets and exit")
    fleet.add_argument("--trace", default="",
                       help="override the trace: a preset name (steady, "
                            "diurnal, bursty, heavy-tail, sessions) or a "
                            "spec file (JSON; YAML when pyyaml is installed)")
    fleet.add_argument("--chaos", default="",
                       help="override the chaos scenario: a preset name (see "
                            "`repro fleet --list-presets`) or a spec file")
    fleet.add_argument("--num-requests", type=int, default=0,
                       help="override the trace's request count")
    fleet.add_argument("--replicas", type=int, default=0,
                       help="override the preset's initial fleet size")
    fleet.add_argument("--seed", type=int, default=0,
                       help="shape-mix seed (the trace carries its own seed)")
    fleet.add_argument("--windows", type=int, default=64,
                       help="time windows in the exported series")

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


def _estimator(args: argparse.Namespace, enforce_memory: bool = False,
               cxl: bool = False) -> LiaEstimator:
    """The estimator of ``--model`` on ``--system``; ``cxl`` attaches
    two CXL expanders and moves the weights there (§6)."""
    spec = get_model(args.model)
    system = get_system(args.system)
    config = LiaConfig(enforce_host_capacity=enforce_memory)
    if cxl:
        system = system.with_cxl(n_expanders=2)
        config = config.with_cxl_weights()
    return LiaEstimator(spec, system, config)


def _reject_negative(args: argparse.Namespace, *dests: str) -> None:
    """Flags where 0 means "unset" take no negative value (or NaN)."""
    for dest in dests:
        value = getattr(args, dest)
        if not value >= 0:
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} must be >= 0 (0 leaves "
                f"it unset), got {value}")


def _reject_continuous_only(args: argparse.Namespace, *dests: str) -> None:
    """Continuous-scheduler flags moved off their defaults need
    ``--scheduler continuous``; the FIFO engines would ignore them."""
    if args.scheduler == "continuous":
        return
    defaults = _build_parser().parse_args([args.command])
    given = [f"--{dest.replace('_', '-')}" for dest in dests
             if getattr(args, dest) != getattr(defaults, dest)]
    if given:
        raise ConfigurationError(
            f"{', '.join(given)} {'needs' if len(given) == 1 else 'need'} "
            "--scheduler continuous (the FIFO engines ignore "
            f"{'it' if len(given) == 1 else 'them'})")


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


def _stream(args: argparse.Namespace, n_requests: int,
            shape: Optional[InferenceRequest] = None,
            arrivals=None):
    """``n_requests`` copies of ``shape``, or a ``--seed``-ed sample of
    the ``--shape`` mix, and their arrivals: Poisson at ``--rate``
    (same seed) unless given."""
    from repro.serving import WorkloadVector, arrivals_poisson

    if shape is not None:
        requests = [shape] * n_requests
    else:
        shapes = ([_parse_shape(spelled) for spelled in args.shape]
                  or [InferenceRequest(*triple) for triple in _DEFAULT_SHAPES])
        requests = WorkloadVector.sample_mix(shapes, n_requests,
                                             seed=args.seed)
    if arrivals is None:
        arrivals = arrivals_poisson(len(requests), args.rate, seed=args.seed)
    return requests, arrivals


def _run_engine(estimator: LiaEstimator, requests, arrivals,
                replicas: Optional[int] = None,
                dispatch: str = "round-robin", scenario=None, chaos=None,
                autoscaler=None, scheduler=None):
    """The engine switch: with a ``scheduler`` config, a continuous
    fleet (its ``chaos`` must be idle); with ``replicas=None`` a single
    FIFO server under the fault ``scenario``; else a FIFO fleet."""
    from repro.serving import (MultiReplicaSimulator, ServingSimulator,
                               run_continuous_fleet)

    if scheduler is not None:
        if chaos is not None and not chaos.idle:
            raise ConfigurationError(
                f"the continuous scheduler has no chaos-injected "
                f"variant yet; scenario {chaos.name!r} is not idle "
                "(pass --chaos none)")
        return run_continuous_fleet(estimator, requests, arrivals,
                                    replicas, scheduler_config=scheduler)
    if replicas is None:
        return ServingSimulator(estimator).run(requests, arrivals,
                                               scenario=scenario)
    return MultiReplicaSimulator(
        estimator, replicas, dispatch=dispatch, chaos=chaos,
        autoscaler=autoscaler).run(requests, arrivals, scenario=scenario)


def _percentiles(report, fractions: Sequence[float] = (0.50, 0.95, 0.99)
                 ) -> Dict[str, float]:
    return {f"p{round(fraction * 100)}":
            report.latency_percentile(fraction)
            for fraction in fractions}


def _batching_summary(report, config, width: int,
                      fleet: bool = False) -> Dict[str, Any]:
    """Print a continuous-batching run's batching line (and, for
    ``serve``, its KV peak line); return the JSON ``batching`` block,
    which ``fleet`` keeps without the serve-only keys."""
    print(f"  {'batching':<{width}}: {report.iterations:,} iterations, "
          f"occupancy {report.occupancy_mean:.2f} mean / "
          f"{report.occupancy_peak} peak, "
          f"{report.policy_resolves} policy re-solves")
    block = {"max_batch_requests": config.max_batch_requests,
             "join": config.join,
             "fifo_degenerate": config.is_fifo_degenerate,
             **{key: getattr(report, key) for key in (
                 "iterations", "admissions", "occupancy_mean",
                 "occupancy_peak", "policy_resolves", "kv_peak_bytes",
                 "kv_demotions")}}
    if fleet:
        return {key: value for key, value in block.items()
                if key not in ("join", "fifo_degenerate", "admissions")}
    kv_line = ", ".join(f"{tier} {peak / 1e9:.2f} GB"
                        for tier, peak in report.kv_peak_bytes.items())
    print(f"  {'kv peak':<{width}}: {kv_line}; "
          f"{report.kv_demotions} demotion(s)")
    return block


def _write_json(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {path}")


def _write_trace(out: str, telemetry, metadata: Dict[str, object],
                 title: str, extra_events: Sequence[dict] = (),
                 note: str = "") -> None:
    """Write the run's Perfetto trace and, next to it, its metrics
    summary as ``<name>.metrics.json``."""
    from repro.telemetry import write_chrome_trace, write_metrics_json

    stem = next((out[:-len(suffix)] for suffix in (".trace.json", ".json")
                 if out.endswith(suffix)), out)
    trace_path = write_chrome_trace(out, telemetry.tracer.spans,
                                    extra_events=extra_events,
                                    metadata=metadata)
    metrics_path = write_metrics_json(stem + ".metrics.json",
                                      telemetry.metrics, title=title)
    print(f"wrote {trace_path}{note}")
    print(f"wrote {metrics_path}")


def _cmd_models(args: argparse.Namespace) -> int:
    for name in sorted(MODEL_ZOO):
        print(MODEL_ZOO[name].describe())
    return 0


def _cmd_systems(args: argparse.Namespace) -> int:
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


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.validation import calibration_ok, render_report

    print(render_report())
    return 0 if calibration_ok() else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    estimator = _estimator(args, enforce_memory=args.enforce_memory,
                           cxl=args.cxl)
    spec, system = estimator.spec, estimator.system
    estimate = estimator.estimate(InferenceRequest(
        args.batch, args.input_len, args.output_len))
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
    estimator = _estimator(args)
    spec, system = estimator.spec, estimator.system
    stage = Stage(args.stage)
    policies = policy_map(spec, stage, args.batches, args.lengths,
                          system, estimator.config)
    header = "   B\\L " + "".join(f"{length:>22}" for length in args.lengths)
    print(f"{spec.name} on {system.name}, {stage.value} stage")
    print(header)
    for batch in args.batches:
        cells = [str(policies[batch, length]) for length in args.lengths]
        print(f"{batch:>6} " + "".join(f"{c:>22}" for c in cells))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    estimator = _estimator(args)
    spec, system = estimator.spec, estimator.system
    points = [(batch, input_len, output_len)
              for batch in args.batches
              for input_len in args.input_lens
              for output_len in args.output_lens]
    # One batched call; the first point that does not fit raises.
    estimates = [only_estimate([entry])
                 for entry in estimator.estimate_many(
                     [InferenceRequest(*point) for point in points])]
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
        _write_json(args.json, {"model": spec.name, "system": system.name,
                                "rows": rows})
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import Telemetry, activate, render_metrics

    estimator = _estimator(args)
    spec, system, config = estimator.spec, estimator.system, estimator.config
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
            report = _run_engine(estimator, *_stream(
                args, args.requests, shape=InferenceRequest(
                    args.batch, args.input_len, args.output_len)))
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

    _write_trace(args.out, telemetry, metadata,
                 f"{args.mode} trace of {spec.name} on {system.name}",
                 extra_events=extra_events, note=_PERFETTO_HINT)
    print(render_metrics(telemetry.metrics))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import (builtin_scenarios, get_scenario,
                              load_scenario, scenario_to_dict)
    from repro.telemetry import Telemetry, activate

    if args.list_presets:
        for name, scenario in sorted(builtin_scenarios().items()):
            kinds = ", ".join(sorted({e.kind.value
                                      for e in scenario.events}))
            admission = (f" (admission depth "
                         f"{scenario.admission.max_queue_depth})"
                         if scenario.admission.enabled else "")
            print(f"{name:>16}: {kinds or 'no fault windows'}{admission}")
        return 0
    if args.scenario and args.preset:
        raise ConfigurationError(
            "--scenario and --preset are mutually exclusive")
    scenario = (load_scenario(args.scenario) if args.scenario
                else get_scenario(args.preset) if args.preset else None)
    estimator = _estimator(args)
    spec, system = estimator.spec, estimator.system
    requests, arrivals = _stream(args, args.requests, shape=InferenceRequest(
        args.batch, args.input_len, args.output_len))
    telemetry = Telemetry() if args.out else None
    with activate(telemetry) if telemetry is not None else nullcontext():
        report = _run_engine(estimator, requests, arrivals,
                             scenario=scenario)

    name = scenario.name if scenario is not None else "(fault-free)"
    print(f"{spec.name} on {system.name}, scenario {name}: "
          f"{report.n_served}/{args.requests} served")
    percentiles = _percentiles(report) if report.n_served else None
    if percentiles is not None:
        for key, value in percentiles.items():
            print(f"  {key} latency  : {value:.3f} s")
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

    if telemetry is not None:
        _write_trace(args.out, telemetry,
                     {"mode": "faults", "model": spec.name,
                      "system": system.name, "scenario": name,
                      "served": report.n_served, "dropped": len(dropped)},
                     f"fault scenario {name} of {spec.name} "
                     f"on {system.name}")
    if args.json:
        _write_json(args.json, {
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
            "percentiles": percentiles,
            "fault_stats": stats.as_dict() if stats is not None else None,
        })
    return 0


def _scheduler_config(args: argparse.Namespace,
                      estimator: LiaEstimator):
    """``serve``'s continuous-batching config.  A ``--kv-*-gb``
    override replaces its own tier only; the others keep the budgets
    derived from the system.  ``--kv-unbounded`` lifts every budget."""
    import dataclasses

    from repro.cxl.residency import (KvTierCapacities,
                                     kv_capacities_from_system)
    from repro.serving.scheduler import SchedulerConfig

    given = {f"{tier}_bytes": getattr(args, f"kv_{tier}_gb") * 1e9
             for tier in ("hbm", "ddr", "cxl")
             if getattr(args, f"kv_{tier}_gb") > 0.0}
    kv_capacities = None
    if args.kv_unbounded:
        if given:
            raise ConfigurationError(
                "--kv-unbounded disables the KV budgets; drop "
                "--kv-*-gb or --kv-unbounded")
        kv_capacities = KvTierCapacities.unbounded()
    elif given:
        kv_capacities = dataclasses.replace(
            kv_capacities_from_system(estimator.spec, estimator.system),
            **given)
    return SchedulerConfig(max_batch_requests=args.max_batch,
                           join=args.join, kv_capacities=kv_capacities)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.energy.cost import CostModel
    from repro.serving import replicas_needed

    _reject_negative(args, "slo_p95", "kv_hbm_gb", "kv_ddr_gb",
                     "kv_cxl_gb")
    _reject_continuous_only(args, "max_batch", "join", "kv_hbm_gb",
                            "kv_ddr_gb", "kv_cxl_gb", "kv_unbounded")
    continuous = args.scheduler == "continuous"
    if continuous and args.slo_p95 > 0.0:
        raise ConfigurationError(
            "--slo-p95 fleet sizing runs on the FIFO engines; drop "
            "it with --scheduler continuous")
    estimator = _estimator(args)
    spec, system = estimator.spec, estimator.system
    scheduler = _scheduler_config(args, estimator) if continuous else None
    workload, arrivals = _stream(args, args.num_requests)

    n_replicas = args.replicas
    if args.slo_p95 > 0.0:
        n_replicas, report = replicas_needed(
            estimator, workload, arrivals, args.slo_p95,
            dispatch=args.dispatch)
        usd_per_hour = n_replicas * CostModel(system).usd_per_hour()
        print(f"{spec.name} on {system.name}: smallest {args.dispatch} "
              f"fleet meeting p95 <= {args.slo_p95:g} s is "
              f"{n_replicas} replica(s) at ${usd_per_hour:.2f}/h")
    else:
        report = _run_engine(estimator, workload, arrivals, n_replicas,
                             dispatch=args.dispatch, scheduler=scheduler)

    if scheduler is not None:
        join = ("fifo-degenerate" if scheduler.is_fifo_degenerate
                else args.join)
        how = f"continuous batching (max batch {args.max_batch}, join {join})"
        engine, sizing = {"scheduler": "continuous"}, {}
    else:
        streaming = report.streaming_percentiles
        how = (f"{args.dispatch} dispatch "
               f"({'streaming' if streaming else 'exact'} percentiles)")
        engine = {"dispatch": args.dispatch, "streaming": streaming}
        sizing = {"slo_p95_s": args.slo_p95 or None}
    print(f"served {report.n_served:,} requests on {n_replicas} "
          f"replica(s), {how}")
    percentiles = _percentiles(report)
    spelled = " / ".join(f"{value:.3f}" for value in percentiles.values())
    print(f"  p50/p95/p99  : {spelled} s")
    print(f"  queue delay  : {report.mean_queue_delay:.3f} s mean")
    print(f"  makespan     : {report.makespan:.3f} s "
          f"({'' if continuous else 'fleet '}utilization "
          f"{report.utilization:.1%})")
    print(f"  throughput   : {report.throughput_tokens_per_s:.2f} "
          f"tokens/s")
    if scheduler is not None:
        tail = {"batching": _batching_summary(report, scheduler, 13)}
    else:
        per_replica = {str(replica): sub.utilization for replica, sub
                       in zip(report.replica_ids, report.per_replica)}
        tail = {"replica_utilizations": per_replica}
        if n_replicas > 1:
            print("  per-replica  : " + ", ".join(
                f"[{replica}] {utilization:.1%}"
                for replica, utilization in per_replica.items()))

    if args.json:
        _write_json(args.json, {
            "model": spec.name, "system": system.name,
            "num_requests": args.num_requests, "rate_per_s": args.rate,
            "seed": args.seed, "replicas": n_replicas, **engine,
            "shapes": [[request.batch_size, request.input_len,
                        request.output_len]
                       for request in workload.shapes],
            **sizing,
            "percentiles": percentiles,
            "mean_queue_delay_s": report.mean_queue_delay,
            "makespan_s": report.makespan,
            "utilization": report.utilization,
            "throughput_tokens_per_s": report.throughput_tokens_per_s,
            **tail})
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.faults import get_scenario
    from repro.telemetry import (SLOPolicy, Telemetry, activate,
                                 monitor_report,
                                 timeseries_to_counter_events,
                                 write_chrome_trace,
                                 write_dashboard_html,
                                 write_timeseries_csv)

    _reject_negative(args, "slo_threshold", "long_window", "short_window")
    if args.preset and args.replicas > 1:
        raise ConfigurationError(
            "--preset runs a single server under the fault "
            "scenario; use --replicas 1 with it")
    estimator = _estimator(args)
    spec, system = estimator.spec, estimator.system
    scenario = get_scenario(args.preset) if args.preset else None
    workload, arrivals = _stream(args, args.num_requests)
    telemetry = Telemetry()
    with activate(telemetry):
        report = _run_engine(
            estimator, workload, arrivals,
            args.replicas if args.replicas > 1 else None,
            dispatch=args.dispatch, scenario=scenario)

    auto_threshold = args.slo_threshold <= 0.0
    threshold = (1.25 * report.latency_percentile(0.95)
                 if auto_threshold else args.slo_threshold)
    policy = SLOPolicy(latency_threshold_s=threshold,
                       error_budget=args.error_budget,
                       long_window_s=args.long_window,
                       short_window_s=args.short_window,
                       burn_rate_threshold=args.burn_threshold)

    monitoring = monitor_report(report, policy, n_windows=args.windows)
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
        print(f"wrote {path}{_PERFETTO_HINT}")
    if args.csv:
        path = write_timeseries_csv(
            args.csv, series, monitoring=monitoring,
            title=f"{spec.name} on {system.name}")
        print(f"wrote {path}")
    if args.html:
        path = write_dashboard_html(
            args.html, monitoring,
            fleet=report if args.replicas > 1 else None,
            title=f"{spec.name} on {system.name}",
            metadata=metadata)
        print(f"wrote {path}")
    if args.json:
        _write_json(args.json, {
            **metadata, "windows": series.n_windows,
            "window_s": series.grid.window_s,
            "slo_threshold_s": threshold,
            "slo_threshold_auto": auto_threshold,
            "monitoring": monitoring.to_dict(),
            "series": series.to_dict()})
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import os

    from repro.energy.cost import CostModel
    from repro.faults.fleet import (builtin_fleet_scenarios,
                                    get_fleet_scenario,
                                    load_fleet_scenario)
    from repro.serving import builtin_fleet_presets, get_fleet_preset
    from repro.serving.scheduler import SchedulerConfig
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

    def override(spelled, default, load, get):
        # A spec file when the path exists, else a preset name.
        if not spelled:
            return default
        return load(spelled) if os.path.exists(spelled) else get(spelled)

    _reject_negative(args, "num_requests")
    _reject_continuous_only(args, "max_batch")
    preset = get_fleet_preset(args.preset)
    trace_spec = override(args.trace, preset.trace, load_trace, get_trace)
    chaos = override(args.chaos, preset.chaos, load_fleet_scenario,
                     get_fleet_scenario)
    if args.num_requests > 0:
        trace_spec = trace_spec.scaled(args.num_requests)
    n_replicas = args.replicas or preset.n_replicas

    estimator = _estimator(args)
    spec, system = estimator.spec, estimator.system
    workload, arrivals = _stream(args, trace_spec.n_requests,
                                 arrivals=trace_spec.generate())
    scheduler = None
    if args.scheduler == "continuous":
        if args.html:
            raise ConfigurationError(
                "--html renders the chaos/autoscaler dashboard; it is "
                "not wired to the continuous scheduler yet")
        scheduler = SchedulerConfig(max_batch_requests=args.max_batch)
    report = _run_engine(estimator, workload, arrivals, n_replicas,
                         dispatch=preset.dispatch, chaos=chaos,
                         autoscaler=preset.autoscaler,
                         scheduler=scheduler)
    usd_per_hour = CostModel(system).usd_per_hour()
    p50, p95 = _percentiles(report, (0.50, 0.95)).values()
    head = {"preset": args.preset, "model": spec.name,
            "system": system.name, "trace": trace_spec.name}

    if scheduler is not None:
        print(f"fleet {args.preset}: {spec.name} on {system.name}, "
              f"trace {trace_spec.name} ({report.n_served:,} "
              f"requests), chaos {chaos.name} (idle), continuous "
              f"batching x{n_replicas} replica(s)")
        print(f"  p50/p95        : {p50:.3f} / {p95:.3f} s")
        batching = _batching_summary(report, scheduler, 15, fleet=True)
        print(f"  throughput     : "
              f"{report.throughput_tokens_per_s:.2f} tokens/s over a "
              f"{report.makespan:,.0f} s makespan")
        replica_seconds = report.makespan * n_replicas
        cost = (usd_per_hour / 3600.0) * replica_seconds
        print(f"  cost           : {replica_seconds:,.0f} "
              f"replica-seconds, ${cost:,.2f}")
        if args.json:
            _write_json(args.json, {
                **head, "scheduler": "continuous", "chaos": chaos.name,
                "n_replicas_initial": n_replicas,
                "n_offered": report.n_offered, "n_served": report.n_served,
                "n_dropped": report.n_dropped,
                "availability": report.availability,
                "p50_s": p50, "p95_s": p95, "makespan_s": report.makespan,
                "throughput_tokens_per_s": report.throughput_tokens_per_s,
                "usd_per_hour_per_replica": usd_per_hour,
                "batching": batching})
        return 0

    stats = report.stats
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
        _write_json(args.json, {
            **head, "dispatch": preset.dispatch,
            "n_replicas_initial": report.n_replicas_initial,
            "slo_p95_s": preset.slo_p95_s, "p50_s": p50, "p95_s": p95,
            "usd_per_hour_per_replica": usd_per_hour,
            "cost_per_million_requests_usd": cost, **report.to_dict()})
    if args.html:
        from repro.telemetry import (SLOPolicy, evaluate_slo,
                                     timeseries_from_report,
                                     write_dashboard_html)

        monitoring = evaluate_slo(
            timeseries_from_report(report, n_windows=args.windows),
            SLOPolicy(latency_threshold_s=preset.slo_p95_s))
        path = write_dashboard_html(
            args.html, monitoring,
            title=f"fleet {args.preset}: {spec.name} on "
                  f"{system.name}",
            metadata={"preset": args.preset, "trace": trace_spec.name,
                      "chaos": chaos.name,
                      "availability": f"{report.availability:.4%}"})
        print(f"wrote {path}")
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


_COMMANDS = {"models": _cmd_models, "systems": _cmd_systems,
             "calibrate": _cmd_calibrate, "plan": _cmd_plan,
             "policy-map": _cmd_policy_map, "sweep": _cmd_sweep,
             "trace": _cmd_trace, "faults": _cmd_faults,
             "serve": _cmd_serve, "monitor": _cmd_monitor,
             "fleet": _cmd_fleet, "experiment": _cmd_experiment}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
