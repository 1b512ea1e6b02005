"""Wall-clock spans around the program's layer boundaries, installed
from outside the program.

The traced run wraps the public entry points listed in :data:`TARGETS`
for the duration of one call into the program and removes every
wrapper afterwards, so an untraced call runs the unmodified code.

* A span is recorded at each wrapped boundary with its name, start,
  end and parent; spans stay in memory until :meth:`Tracer.chrome_trace`
  writes them out.
* A boundary's self time is its duration minus the time spent in
  wrapped boundaries it called.
* Hot leaves (``layer_latency``, ``sublayer_cost``: hundreds of
  thousands of calls per figure) record counts and summed times only,
  no per-call span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Marker attribute every wrapper carries; :func:`wrappers_remaining`
#: looks for it after a traced call.
WRAPPED_ATTR = "__perfbench_original__"

#: Spans kept for the Chrome trace; the rest are counted, not stored.
#: Self times and counters are accumulated online and stay exact.
SPAN_CAP = 200_000


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _policy_key(args: tuple, kwargs: dict) -> tuple:
    # optimal_policy(spec, stage, batch_size, context_len, system, ...)
    return (_arg(args, kwargs, 1, "stage"),
            _arg(args, kwargs, 2, "batch_size"),
            _arg(args, kwargs, 3, "context_len"))


def _n_arrivals(args: tuple, kwargs: dict) -> int:
    return len(_arg(args, kwargs, 0, "arrivals"))


def _n_requests(position: int, name: str) -> Callable[[tuple, dict], int]:
    def count(args: tuple, kwargs: dict) -> int:
        requests = _arg(args, kwargs, position, name)
        n = getattr(requests, "n_requests", None)
        return int(n) if n is not None else len(requests)
    return count


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: ``module`` + ``qualname`` (``Class.method``
    or a module-level function), recorded under ``span``."""

    layer: str
    span: str
    module: str
    qualname: str
    leaf: bool = False
    #: Work items per call (requests through an engine), for ns/item.
    items: Optional[Callable[[tuple, dict], int]] = None
    #: Distinct-input key per call, for the distinct/calls ratio.
    key: Optional[Callable[[tuple, dict], Any]] = None
    #: Keep every call's duration (for a median).
    durations: bool = False


TARGETS: Tuple[Target, ...] = (
    Target("core.latency", "latency.layer_latency", "repro.core.latency",
           "layer_latency", leaf=True),
    Target("models.sublayers", "sublayers.sublayer_cost",
           "repro.models.sublayers", "sublayer_cost", leaf=True),
    Target("core.optimizer", "optimizer.optimal_policy",
           "repro.core.optimizer", "optimal_policy", key=_policy_key),
    Target("core.estimator", "estimator.estimate", "repro.core.estimator",
           "LiaEstimator.estimate", durations=True),
    Target("baselines", "baselines.estimate", "repro.baselines.ipex",
           "IpexEstimator.estimate"),
    Target("baselines", "baselines.estimate", "repro.baselines.flexgen",
           "FlexGenEstimator.estimate"),
    Target("experiments", "experiments.fig09",
           "repro.experiments.fig09_policy_map", "run"),
    Target("experiments", "experiments.fig10",
           "repro.experiments.fig10_online_latency", "run"),
    Target("experiments", "experiments.fig11",
           "repro.experiments.fig11_offline_throughput", "run"),
    Target("serving.vectorized", "vectorized.lindley_timeline",
           "repro.serving.vectorized", "lindley_timeline",
           items=_n_arrivals),
    Target("serving.vectorized", "vectorized.summary",
           "repro.serving.vectorized", "VectorizedServingReport.summary"),
    Target("serving.replicas", "replicas.run", "repro.serving.replicas",
           "MultiReplicaSimulator.run", items=_n_requests(1, "requests")),
    Target("serving.piecewise", "piecewise.run_degraded",
           "repro.serving.piecewise", "run_degraded_vectorized",
           items=_n_requests(1, "workload")),
    Target("serving.scheduler", "scheduler.run", "repro.serving.scheduler",
           "ContinuousBatchScheduler.run"),
    Target("serving.scheduler", "scheduler.step_profile",
           "repro.serving.scheduler", "StepProfile.__init__"),
    Target("cxl.residency", "residency.admit", "repro.cxl.residency",
           "KvResidency.admit"),
    Target("telemetry.timeseries", "timeseries.timeseries",
           "repro.telemetry.timeseries", "timeseries_from_report"),
    Target("telemetry.timeseries", "timeseries.slo",
           "repro.telemetry.timeseries", "evaluate_slo"),
)

#: span name -> the program module (layer) it times.
LAYER_OF = {target.span: target.layer for target in TARGETS}


@dataclass
class SpanStats:
    """Accumulated timings of one span name."""

    calls: int = 0
    #: Inclusive time, counted at the outermost level only, so a
    #: boundary that re-enters itself is not counted twice.
    busy_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    keys: set = field(default_factory=set)
    durations: List[float] = field(default_factory=list)


class Tracer:
    """In-memory span recorder; one per traced call."""

    def __init__(self, origin: Optional[float] = None) -> None:
        #: Zero of the trace's timestamps; tracers of one run share it.
        self.origin = time.perf_counter() if origin is None else origin
        #: span name -> why its target could not be wrapped.
        self.missing: Dict[str, str] = {}
        #: ``cache_stats()`` rows taken right after the traced call.
        self.cache_rows: List[Dict[str, Any]] = []
        self.stats: Dict[str, SpanStats] = {}
        #: (name, start, end, span id, parent span id) per stored span.
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.spans_dropped = 0
        # Open frames: [start, child seconds, span id or -1].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._next_id = 0

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def enter(self, name: str, leaf: bool) -> list:
        span_id = -1
        if not leaf:
            span_id = self._next_id
            self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [0.0, 0.0, span_id, self._parent_id() if not leaf else -1]
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def exit(self, name: str, frame: list) -> float:
        end = time.perf_counter()
        duration = end - frame[0]
        self._stack.pop()
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.self_s += duration - frame[1]
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            stats.busy_s += duration
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] >= 0:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((name, frame[0], end, frame[2],
                                   frame[3]))
            else:
                self.spans_dropped += 1
        return duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness itself."""
        frame = self.enter(name, leaf=False)
        try:
            yield
        finally:
            self.exit(name, frame)

    # ------------------------------------------------------------------
    def chrome_trace(self, process_name: str) -> dict:
        """The stored spans as a Chrome trace-event document."""
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "host wall clock"}},
        ]
        for name, start, end, span_id, parent in self.spans:
            events.append({
                "ph": "X", "name": name, "cat": LAYER_OF.get(name, "harness"),
                "pid": 1, "tid": 1,
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": self.spans_dropped}}


def _make_wrapper(tracer: Tracer, target: Target,
                  fn: Callable) -> Callable:
    name, leaf = target.span, target.leaf
    items, key, keep = target.items, target.key, target.durations

    if leaf:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, True)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(name, frame)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, False)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.exit(name, frame)
                stats = tracer.stats[name]
                if items is not None:
                    stats.items += items(args, kwargs)
                if key is not None:
                    stats.keys.add(key(args, kwargs))
                if keep:
                    stats.durations.append(duration)
    setattr(wrapper, WRAPPED_ATTR, fn)
    return wrapper


class Installation:
    """The wrappers of one traced call; :meth:`remove` restores every
    binding it replaced."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []
        #: span name -> why it could not be wrapped.
        self.missing: Dict[str, str] = {}

    def remove(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def _bindings_of(fn: Callable) -> List[Tuple[Any, str]]:
    """Every module attribute bound to ``fn``, under any name —
    ``from m import f`` copies the binding into the importer."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is fn:
                found.append((module, attr))
    return found


def install(tracer: Tracer,
            targets: Tuple[Target, ...] = TARGETS) -> Installation:
    """Wrap every target; targets that no longer exist are reported in
    ``Installation.missing`` rather than failing the run."""
    installation = Installation()
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError as error:
            installation.missing[target.span] = f"import failed: {error}"
            continue
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None or not callable(raw):
                installation.missing[target.span] = (
                    f"{target.module}.{target.qualname} not found")
                continue
            installation.patches.append((owner, attr, raw))
            setattr(owner, attr, _make_wrapper(tracer, target, raw))
            continue
        fn = getattr(module, attr, None)
        if fn is None or not callable(fn):
            installation.missing[target.span] = (
                f"{target.module}.{attr} not found")
            continue
        wrapper = _make_wrapper(tracer, target, fn)
        for owner, bound_as in _bindings_of(fn):
            installation.patches.append((owner, bound_as, fn))
            setattr(owner, bound_as, wrapper)
    return installation


def wrappers_remaining() -> List[str]:
    """Module attributes and target class attributes still bound to a
    wrapper (empty after a clean :meth:`Installation.remove`)."""
    left = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if callable(value) and hasattr(value, WRAPPED_ATTR):
                left.append(f"{module.__name__}.{attr}")
    for target in TARGETS:
        owner_name, _, attr = target.qualname.rpartition(".")
        module = sys.modules.get(target.module)
        owner = getattr(module, owner_name, None) if owner_name else None
        value = getattr(owner, "__dict__", {}).get(attr)
        if value is not None and hasattr(value, WRAPPED_ATTR):
            left.append(f"{target.module}.{target.qualname}")
    return left
