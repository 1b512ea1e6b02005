"""End-to-end inference estimation for the LIA framework.

Mirrors the paper's latency-model methodology (§7): the latency of a
single decoder layer is evaluated separately for the prefill and each
decoding step via Eq. (2) (with overlap per §5.2), multiplied by the
number of decoder layers, and summed.  Optimization-1 splits layers
into a GPU-resident group (no weight streaming; policies re-optimized
with free weights) and a streamed group.

The estimator also performs the memory accounting that drives every
capacity result in the paper: host-side DDR/CXL placement (§6,
Table 3), GPU working-set and residency packing (§5.2), and
out-of-memory detection (Fig. 14's OOM entries).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.arrays import Real, as_float, first_index
from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.gpu_residency import (RequestLike, ResidencyPlan,
                                      plan_layer_residency)
from repro.core.optimizer import PolicyGrid, search_grid, stage_layer_time
from repro.core.policy import OffloadPolicy
from repro.core.terms import (LayerTerms, check_placement, cpu_compute,
                               cpu_engine, layer_terms, resident_mask)
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest, RequestPoints


@dataclass(frozen=True)
class StageBreakdown:
    """Wall-clock and per-resource busy time of one stage.

    ``time`` honors the overlap configuration; the busy-time fields
    are serial sums (they feed Table 5 and the energy model); arrays
    over steps until :func:`sum_steps` totals them.
    """

    time: float
    cpu_compute: float
    gpu_compute: float
    transfer: float

    def __add__(self, other: "StageBreakdown") -> "StageBreakdown":
        return StageBreakdown(
            time=self.time + other.time,
            cpu_compute=self.cpu_compute + other.cpu_compute,
            gpu_compute=self.gpu_compute + other.gpu_compute,
            transfer=self.transfer + other.transfer,
        )

    def components(self):
        return (self.time, self.cpu_compute, self.gpu_compute,
                self.transfer)


@dataclass(frozen=True)
class MemoryUsage:
    """Byte-level accounting of one inference run."""

    weight_bytes: float
    kv_bytes: float
    activation_bytes: float
    ddr_bytes: float
    cxl_bytes: float
    gpu_bytes: float

    @property
    def host_bytes(self) -> float:
        return self.ddr_bytes + self.cxl_bytes


@dataclass(frozen=True)
class InferenceEstimate:
    """The result of estimating one request end to end."""

    framework: str
    model: str
    system: str
    request: InferenceRequest
    prefill: StageBreakdown
    decode: StageBreakdown
    prefill_policy: OffloadPolicy
    decode_policy: OffloadPolicy
    residency: ResidencyPlan
    memory: MemoryUsage

    @property
    def latency(self) -> float:
        """End-to-end seconds per query (the Fig. 10 metric)."""
        return self.prefill.time + self.decode.time

    @property
    def throughput(self) -> float:
        """Generated tokens per second (the Fig. 11 metric)."""
        if self.latency == 0.0:
            return 0.0
        return self.request.total_generated_tokens / self.latency

    @property
    def total(self) -> StageBreakdown:
        return self.prefill + self.decode


#: One ``estimate_many`` entry: the request's estimate, or the
#: :class:`CapacityError` its ``estimate`` raises.
EstimateOrError = Union[InferenceEstimate, CapacityError]


def only_estimate(entries: Sequence[EstimateOrError]) -> InferenceEstimate:
    """The one-point case of ``estimate_many``: its single entry, or
    that entry's :class:`CapacityError` raised."""
    (entry,) = entries
    if isinstance(entry, CapacityError):
        raise entry
    return entry


def estimate_each(estimator, requests: Sequence[InferenceRequest]
                  ) -> List[EstimateOrError]:
    """``estimate_many`` for closed-form models without a term table:
    one ``estimator.estimate`` call per request."""
    entries: List[EstimateOrError] = []
    for request in requests:
        try:
            entries.append(estimator.estimate(request))
        except CapacityError as error:
            entries.append(error)
    return entries


@dataclass(frozen=True)
class RequestGrid:
    """The ``(B, L)`` points of ``n`` requests' term tables.

    The prefill table has a point per request.  The decode table lays
    every request's steps end to end, ``L_in`` to ``L_in + L_out - 1``
    each, so it has ``sum(L_out)`` points and no padding.  ``B`` and
    ``L_in`` are one int when every request shares them (a single
    request, say), so their terms stay scalar: an array turns every
    term it feeds into numpy dispatch.
    """

    batch: Union[int, np.ndarray]
    input_len: Union[int, np.ndarray]
    output_len: np.ndarray

    @classmethod
    def from_requests(cls, requests: Sequence[InferenceRequest]
                      ) -> "RequestGrid":
        def shared(values: List[int]) -> Union[int, np.ndarray]:
            return (values[0] if values.count(values[0]) == len(values)
                    else np.array(values))

        return cls(shared([request.batch_size for request in requests]),
                   shared([request.input_len for request in requests]),
                   np.array([request.output_len for request in requests]))

    @property
    def points(self) -> RequestPoints:
        """Every request's ``(B, L_in, L_out)``, for the planners."""
        return RequestPoints(self.batch, self.input_len, self.output_len)

    @property
    def prefill(self) -> Tuple[Union[int, np.ndarray],
                               Union[int, np.ndarray]]:
        """``(B, L)`` of the prefill table."""
        return self.batch, self.input_len

    @property
    def first_steps(self) -> np.ndarray:
        """The decode-table index of each request's first step."""
        return np.cumsum(self.output_len) - self.output_len

    def spread(self, values: Union[int, np.ndarray]
               ) -> Union[int, np.ndarray]:
        """Per-request ``values`` (an ``(n, ...)`` array) repeated over
        each request's decode steps.  A value that every request
        shares stays one value: an int as it is, equal rows as their
        first, which broadcasts over the steps as the repeats would."""
        if not isinstance(values, np.ndarray):
            return values
        if (values == values[0]).all():
            return values[0]
        return np.repeat(values, self.output_len, axis=0)

    @property
    def decode(self) -> Tuple[Union[int, np.ndarray], np.ndarray]:
        """``(B, L)`` of the decode table."""
        steps = (np.arange(int(self.output_len.sum()))
                 - self.spread(self.first_steps))
        return self.spread(self.batch), self.spread(self.input_len) + steps

    def fold_decode(self, steps: StageBreakdown) -> StageBreakdown:
        """Each request's total of a breakdown over the decode table:
        its steps folded left to right (``np.add.accumulate``, as a
        per-step loop adds them)."""
        ends = np.cumsum(self.output_len).tolist()
        bounds = list(zip([0] + ends[:-1], ends))
        return StageBreakdown(*(
            np.array([np.add.accumulate(values[start:end])[-1]
                      for start, end in bounds])
            for values in steps.components()))


def _placement(config: LiaConfig) -> str:
    """The host placement a term table depends on, for messages."""
    return (f"weights={config.weight_placement.value}, "
            f"kv={config.kv_placement.value}, "
            f"kv_cxl_fraction={config.kv_cxl_fraction}")


@dataclass(frozen=True)
class RequestTables:
    """The prefill and decode term tables of one request list, laid
    out as its :class:`RequestGrid`, and the model, system and
    configuration they were built under.

    A term table depends on the configuration only through the host
    placement (weights, KV cache, ``kv_cxl_fraction``) and the CPU
    engine.  So the LIA, IPEX and FlexGen estimators of one model and
    system all estimate from one pair of tables (:meth:`read_as`):
    each plans memory and picks policies itself, and a reader on
    another CPU engine recomputes only ``comp_cpu``.
    """

    spec: ModelSpec
    system: SystemConfig
    config: LiaConfig
    requests: Tuple[InferenceRequest, ...]
    grid: RequestGrid
    prefill: LayerTerms
    decode: LayerTerms

    @classmethod
    def build(cls, spec: ModelSpec, system: SystemConfig,
              config: LiaConfig, requests: Sequence[InferenceRequest]
              ) -> "RequestTables":
        """The two tables of a nonempty request list: a prefill point
        per request, and every request's decode steps end to end."""
        grid = RequestGrid.from_requests(requests)
        return cls(spec, system, config, tuple(requests), grid,
                   layer_terms(spec, Stage.PREFILL, *grid.prefill, system,
                               config),
                   layer_terms(spec, Stage.DECODE, *grid.decode, system,
                               config))

    def read_as(self, spec: ModelSpec, system: SystemConfig,
                config: LiaConfig) -> "RequestTables":
        """These tables as an estimator of ``spec`` on ``system`` under
        ``config`` would build them: ``comp_cpu`` is recomputed
        (:func:`~repro.core.terms.cpu_compute`) when ``config`` selects
        another CPU engine.  Raises :class:`ConfigurationError` when the
        model, the system or the host placement differ."""
        if (spec != self.spec or system != self.system
                or (config.weight_placement, config.kv_placement,
                    config.kv_cxl_fraction)
                != (self.config.weight_placement, self.config.kv_placement,
                    self.config.kv_cxl_fraction)):
            raise ConfigurationError(
                f"term tables of {self.spec.name} on {self.system.name} "
                f"({_placement(self.config)}) cannot be read as "
                f"{spec.name} on {system.name} ({_placement(config)})")
        if cpu_engine(system, config) == cpu_engine(system, self.config):
            return self
        return replace(self, config=config, **{
            stage: replace(terms, comp_cpu=cpu_compute(terms.costs, system,
                                                       config))
            for stage, terms in (("prefill", self.prefill),
                                 ("decode", self.decode))})


def estimate_from_tables(estimator, requests: Sequence[InferenceRequest]
                         ) -> List[EstimateOrError]:
    """``estimator.estimate_many(requests)``: its ``estimate_tables``
    fed the :class:`RequestTables` its own configuration builds."""
    if not requests:
        return []
    return estimator.estimate_tables(RequestTables.build(
        estimator.spec, estimator.system, estimator.config, requests))


def split_rows(stages: StageBreakdown, n: int) -> List[StageBreakdown]:
    """One breakdown per request from one whose fields are ``(n,)``
    arrays, or scalars that every request shares."""
    fields = [[float(values)] * n if np.ndim(values) == 0
              else values.tolist() for values in stages.components()]
    return [StageBreakdown(*row) for row in zip(*fields)]


def host_memory_usage(spec: ModelSpec, request: RequestLike,
                      system: SystemConfig,
                      config: LiaConfig) -> MemoryUsage:
    """Place weights, KV cache, and activations into DDR/CXL pools.

    For a :class:`RequestPoints`, each field is an array over its
    points (or a float they share)."""
    weights = float(spec.total_param_bytes)
    kv = as_float(spec.kv_cache_bytes(request.batch_size,
                                      request.input_len + request.output_len))
    activations = as_float(spec.peak_activation_bytes(request.batch_size,
                                                      request.input_len))
    ddr = 0.0
    cxl = 0.0
    if config.weight_placement is WeightPlacement.CXL:
        cxl += weights
    else:
        ddr += weights
    if config.kv_placement is KvCachePlacement.CXL:
        cxl += kv + activations
    else:
        # Recency-window KV tiering spills the cold fraction to CXL.
        cxl += kv * config.kv_cxl_fraction
        ddr += kv * (1.0 - config.kv_cxl_fraction) + activations
    return MemoryUsage(weight_bytes=weights, kv_bytes=kv,
                       activation_bytes=activations, ddr_bytes=ddr,
                       cxl_bytes=cxl, gpu_bytes=0.0)


def host_overflows(memory: MemoryUsage, system: SystemConfig) -> Real:
    """Where :func:`check_host_capacity` raises: a host pool overflows,
    or bytes go to CXL on a system without it.  A bool, or a mask over
    the points of an array plan."""
    overflows = memory.ddr_bytes > system.cpu.memory.capacity_bytes
    if not system.has_cxl:
        return overflows | (memory.cxl_bytes > 0.0)
    return overflows | (memory.cxl_bytes > system.cxl_pool.capacity_bytes)


def check_host_capacity(memory: MemoryUsage, system: SystemConfig) -> None:
    """Raise :class:`CapacityError` when host pools overflow."""
    ddr_capacity = system.cpu.memory.capacity_bytes
    if memory.ddr_bytes > ddr_capacity:
        raise CapacityError(
            f"{system.name}: DDR needs {memory.ddr_bytes / 2**30:.1f} GiB "
            f"but has {ddr_capacity / 2**30:.1f} GiB",
            requested=memory.ddr_bytes, available=ddr_capacity,
            device=system.cpu.memory.name)
    if memory.cxl_bytes > 0.0:
        cxl_capacity = system.cxl_pool.capacity_bytes
        if memory.cxl_bytes > cxl_capacity:
            raise CapacityError(
                f"{system.name}: CXL needs "
                f"{memory.cxl_bytes / 2**30:.1f} GiB but has "
                f"{cxl_capacity / 2**30:.1f} GiB",
                requested=memory.cxl_bytes, available=cxl_capacity,
                device="cxl-pool")


class PointPlans(NamedTuple):
    """Memory plans from one pass of the float-or-array planners: for
    a :class:`RequestPoints`, each field is an array over its points
    (or a value they share)."""

    memory: MemoryUsage
    residency: ResidencyPlan
    #: Where the point's ``estimate`` raises.
    failed: Real

    @property
    def n_resident(self) -> np.ndarray:
        """Optimization-1's resident layer count at every point."""
        return np.broadcast_to(self.residency.n_resident_layers,
                               np.shape(self.failed))

    @property
    def n_streamed(self) -> np.ndarray:
        """The streamed layer count at every point."""
        return self.residency.n_layers - self.n_resident

    def rows(self, n: int) -> List[Tuple[MemoryUsage, ResidencyPlan]]:
        """The one-point memory usage and residency plan of each of
        ``n`` aligned points: a field is an ``(n,)`` array, or a value
        every point shares."""
        def split(plan):
            columns = [value.tolist() if isinstance(value, np.ndarray)
                       else [value] * n
                       for value in (getattr(plan, field.name)
                                     for field in fields(plan))]
            return [type(plan)(*row) for row in zip(*columns)]

        return list(zip(split(self.memory), split(self.residency)))


def plan_each(estimator, points: RequestPoints
              ) -> Tuple[Any, Dict[int, CapacityError]]:
    """``estimator``'s array plan of aligned points, and the
    :class:`CapacityError` of every point where it fails: its scalar
    ``_plan``'s at that point, so the message is exact (an invalid
    point raises its ``ConfigurationError``)."""
    plans = estimator._plan_points(points)
    errors: Dict[int, CapacityError] = {}
    for point in np.flatnonzero(plans.failed).tolist():
        try:
            estimator._plan(points.at((point,)))
        except CapacityError as error:
            errors[point] = error
    return plans, errors


class LiaEstimator:
    """Analytic twin of the LIA runtime for one (model, system) pair."""

    framework_name = "lia"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None) -> None:
        self.spec = spec
        self.system = system
        self.config = config or LiaConfig()
        check_placement(system, self.config)

    # ------------------------------------------------------------------
    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """Estimate latency, throughput, and memory for one request:
        the one-point case of :meth:`estimate_many`."""
        return only_estimate(self.estimate_many([request]))

    def estimate_many(self, requests: Sequence[InferenceRequest]
                      ) -> List[EstimateOrError]:
        """Estimate every request, in order, from one prefill and one
        decode term table (:meth:`estimate_tables`)."""
        return estimate_from_tables(self, requests)

    def estimate_tables(self, tables: RequestTables
                        ) -> List[EstimateOrError]:
        """Estimate the requests of ``tables``, in order.

        Each request's policies are solved on its prefill point and on
        its first decode step, ``L_in`` (the decode policy depends on
        B, not L — §7.1), and its decode steps are summed left to
        right.  A request whose memory plan overflows gets the
        :class:`CapacityError` that :meth:`estimate` raises; its table
        rows are evaluated with the others and dropped.
        """
        tables = tables.read_as(self.spec, self.system, self.config)
        grid, requests = tables.grid, tables.requests
        plans, errors = plan_each(self, grid.points)
        if len(errors) == len(requests):
            return [errors[index] for index in range(len(requests))]
        n_resident, n_streamed = plans.n_resident, plans.n_streamed
        prefill, prefill_policies = self._stage_totals(
            tables.prefill, n_streamed, n_resident)
        decode, decode_policies = self._stage_totals(
            tables.decode, n_streamed, n_resident, grid)

        prefills = split_rows(prefill, len(requests))
        decodes = split_rows(grid.fold_decode(decode), len(requests))
        prefill_best, decode_best = (
            np.broadcast_to(policies.best, n_streamed.shape).tolist()
            for policies in (prefill_policies, decode_policies))
        return [
            errors[index] if index in errors else InferenceEstimate(
                framework=self.framework_name,
                model=self.spec.name,
                system=self.system.name,
                request=request,
                prefill=prefills[index],
                decode=decodes[index],
                prefill_policy=prefill_policies.candidates[
                    prefill_best[index]],
                decode_policy=decode_policies.candidates[
                    decode_best[index]],
                residency=residency,
                memory=memory,
            )
            for index, (request, (memory, residency)) in enumerate(
                zip(requests, plans.rows(len(requests))))]

    def decode_step_times(self, batch_sizes: Sequence[int],
                          context_lens: Sequence[int]) -> np.ndarray:
        """One decode step's time at every ``(B, L)`` of a grid.

        Entry ``[i, j]`` is
        ``estimate(InferenceRequest(batch_sizes[i], context_lens[j],
        1)).decode.time`` bit for bit, from one array memory plan and
        one broadcast term table: each point keeps its own Eq. (1)
        winners and residency split, and the first point (row-major)
        that ``estimate`` rejects raises the same error.
        """
        points = RequestPoints(np.asarray(batch_sizes)[:, np.newaxis],
                               np.asarray(context_lens)[np.newaxis, :], 1)
        plans = self._plan_points(points)
        point = first_index(plans.failed)
        if point is not None:
            self._plan(points.at(point))  # raises that point's error
        terms = layer_terms(self.spec, Stage.DECODE, points.batch_size,
                            points.input_len, self.system, self.config)
        return self._stage_totals(terms, plans.n_streamed,
                                  plans.n_resident)[0].time

    def prefill_times(self, batch_sizes: Sequence[int],
                      input_lens: Sequence[int]
                      ) -> List[Union[float, CapacityError]]:
        """The prefill time of every aligned ``(B, L_in)`` point.

        Entry ``i`` is ``estimate(InferenceRequest(batch_sizes[i],
        input_lens[i], 1)).prefill.time`` bit for bit, or the
        :class:`CapacityError` that estimate raises, from one array
        memory plan and one prefill term table: the decode stage, which
        ``estimate`` also sums, is never built.
        """
        points = RequestPoints(np.asarray(batch_sizes),
                               np.asarray(input_lens), 1)
        plans, errors = plan_each(self, points)
        terms = layer_terms(self.spec, Stage.PREFILL, points.batch_size,
                            points.input_len, self.system, self.config)
        times = self._stage_totals(terms, plans.n_streamed,
                                   plans.n_resident)[0].time
        return [errors.get(point, time)
                for point, time in enumerate(times.tolist())]

    def max_feasible_batch(self, input_len: int, output_len: int,
                           hi: int = 1 << 14) -> int:
        """Largest batch size whose host memory footprint fits — the
        quantity CXL offloading raises in Table 3 and the abstract's
        900 -> 1.6K claim."""
        def fits(batch_size: int) -> bool:
            request = InferenceRequest(batch_size, input_len, output_len)
            try:
                check_host_capacity(
                    host_memory_usage(self.spec, request, self.system,
                                      self.config),
                    self.system)
            except CapacityError:
                return False
            return True

        if not fits(1):
            return 0
        if fits(hi):
            return hi
        low, high = 1, hi
        while high - low > 1:
            mid = (low + high) // 2
            if fits(mid):
                low = mid
            else:
                high = mid
        return low

    # ------------------------------------------------------------------
    def _plan_points(self, request: RequestLike) -> PointPlans:
        """Memory placement and GPU residency of ``request``, and
        whether its ``estimate`` fails: its plan overflows the host
        pools (if enforced) or the GPU working set, or (for a
        :class:`RequestPoints`) its shape is not a request.  Each an
        array over the points of a :class:`RequestPoints`."""
        memory = host_memory_usage(self.spec, request, self.system,
                                   self.config)
        residency = plan_layer_residency(self.spec, self.system, request,
                                         self.config)
        gpu_bytes = residency.resident_bytes + residency.working_bytes
        failed = gpu_bytes > self.system.gpu.memory_capacity
        if self.config.enforce_host_capacity:
            failed = host_overflows(memory, self.system) | failed
        if isinstance(request, RequestPoints):
            failed = failed | request.invalid
        return PointPlans(replace(memory, gpu_bytes=gpu_bytes), residency,
                          failed)

    def _plan(self, request: InferenceRequest
              ) -> Tuple[MemoryUsage, ResidencyPlan]:
        """:meth:`_plan_points` of one request; raises
        :class:`CapacityError` when its plan overflows."""
        memory, residency, failed = self._plan_points(request)
        if failed:
            if self.config.enforce_host_capacity:
                check_host_capacity(memory, self.system)
            capacity = self.system.gpu.memory_capacity
            raise CapacityError(
                f"{self.system.name}: GPU working set "
                f"{memory.gpu_bytes / 2**30:.1f} GiB exceeds "
                f"{capacity / 2**30:.1f} GiB",
                requested=memory.gpu_bytes, available=capacity,
                device=self.system.gpu.name)
        return memory, residency

    def _stage_totals(self, terms: LayerTerms, n_streamed: np.ndarray,
                      n_resident: np.ndarray,
                      grid: Optional[RequestGrid] = None
                      ) -> Tuple[StageBreakdown, PolicyGrid]:
        """Every point's breakdown of ``terms`` over Optimization-1's
        streamed and resident layer groups, and the streamed group's
        Eq. (1) winners.

        ``n_streamed`` and ``n_resident`` hold each point's group
        sizes (a 0-d table broadcasts over them), and each point's
        winners are solved on the point itself.  With ``grid``,
        ``terms`` is its decode table and the sizes are per request:
        each request's winners are solved on its first step, ``L_in``
        (the decode policy depends on B, not L — §7.1), and hold for
        all its steps.  A group no point has is skipped, and a point
        adds nothing for a group it lacks.
        """
        policies = terms
        if grid is not None:
            policies = terms.point(grid.first_steps)
            n_streamed, n_resident = (grid.spread(n_streamed),
                                      grid.spread(n_resident))
        total = [np.zeros(terms.comp_cpu.shape[:-1])] * 4
        streamed = search_grid(policies, self.config)
        for count, weights_resident in ((n_streamed, False),
                                        (n_resident, True)):
            if not count.any():
                continue
            winners = (search_grid(policies, self.config, True)
                       if weights_resident else streamed).winners_on_cpu
            if grid is not None:
                winners = grid.spread(winners)
            layer = terms.sums(winners, resident_mask(weights_resident))
            time = stage_layer_time(layer, terms.stage, self.config)
            total = [np.where(count > 0, field + part * count, field)
                     for field, part in zip(total, (
                         time, layer.cpu_compute, layer.gpu_compute,
                         layer.transfer))]
        return StageBreakdown(*total), streamed


def sum_steps(steps: StageBreakdown) -> StageBreakdown:
    """Total a breakdown whose fields are arrays over steps, left to
    right (``np.add.accumulate``) as a per-step loop adds them."""
    def total(values: np.ndarray) -> float:
        return float(np.add.accumulate(values)[-1]) if values.size else 0.0

    return StageBreakdown(*(total(values) for values in steps.components()))
