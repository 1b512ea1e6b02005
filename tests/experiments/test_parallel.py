"""Tests of the process-parallel sweep executor.

The kernels under test live at module top level and are addressed via
the ``"module:attr"`` escape hatch, so spawned workers (which know
nothing about the parent's registry mutations) re-import them by
name.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from multiprocessing import shared_memory

from repro.core.cache import clear_caches
from repro.core.config import LiaConfig
from repro.errors import ConfigurationError, SweepWorkerError
from repro.experiments.parallel import (
    PROCESSES_ENV,
    KernelCall,
    SharedWorkload,
    chunk_bounds,
    default_processes,
    kernel_names,
    publish_array,
    publish_workload,
    published_segments,
    release,
    release_workload,
    resolve_kernel,
    retain,
    run_process_sweep,
    sweep_generator,
    sweep_kernel,
    sweep_rng,
)
from repro.experiments.runner import run_sweep
from repro.models.workload import InferenceRequest
from repro.serving.vectorized import WorkloadVector
from repro.telemetry import Telemetry, activate

SELF = "tests.experiments.test_parallel"


# ----------------------------------------------------------------------
# Kernels importable from spawned workers
# ----------------------------------------------------------------------
def square_kernel(offset=0):
    return lambda point: point * point + offset


def slow_head_kernel():
    # The first points are much slower than the rest, so with >1
    # worker the later chunks finish first — ordering must not care.
    def run(point):
        if point < 4:
            time.sleep(0.05)
        return point * 10

    return run


def faulty_kernel():
    def run(point):
        if point == 5:
            raise ValueError(f"bad point {point}")
        return point

    return run


def crash_kernel():
    def run(point):
        if point == 7:
            os._exit(13)
        return point

    return run


def shm_sum_kernel(handle):
    array = handle.array()

    def run(point):
        return float(array[point:point + 2].sum())

    return run


def write_attempt_kernel(handle):
    def run(point):
        array = handle.array()
        try:
            array[0] = -1.0
        except ValueError:
            return "read-only"
        return "writable"

    return run


def telemetry_kernel():
    def run(point):
        from repro.telemetry.runtime import current

        active = current()
        if active is not None:
            active.metrics.counter("parallel.test",
                                   parity=str(point % 2)).inc()
            active.metrics.histogram("parallel.values").observe(
                float(point))
        return point

    return run


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_kernels_registered(self):
        names = kernel_names()
        for expected in ("estimate", "fig09.policy", "fig10.latency",
                         "fig11.throughput", "fleet.cell", "policy_map",
                         "replicas.fleet_size"):
            assert expected in names

    def test_unknown_kernel_is_one_line_error(self):
        with pytest.raises(ConfigurationError, match="unknown sweep"):
            resolve_kernel("no-such-kernel")

    def test_duplicate_registration_rejected(self):
        @sweep_kernel("parallel-test-dup")
        def first():
            return lambda p: p

        with pytest.raises(ConfigurationError, match="already"):
            @sweep_kernel("parallel-test-dup")
            def second():
                return lambda p: p

    def test_module_attr_resolution(self):
        factory = resolve_kernel(f"{SELF}:square_kernel")
        assert factory is square_kernel

    def test_module_attr_missing_attr(self):
        with pytest.raises(ConfigurationError, match="no kernel"):
            resolve_kernel(f"{SELF}:not_there")

    def test_module_attr_missing_module(self):
        with pytest.raises(ConfigurationError, match="cannot import"):
            resolve_kernel("tests.experiments.nope:thing")

    def test_kernel_call_is_callable_in_process(self):
        call = KernelCall(f"{SELF}:square_kernel", (3,))
        assert call(4) == 19


class TestDefaultProcesses:
    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(PROCESSES_ENV, raising=False)
        assert default_processes() == 0

    def test_value_passes_through_uncapped(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "64")
        assert default_processes() == 64

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "lots")
        with pytest.raises(ConfigurationError):
            default_processes()

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "-1")
        with pytest.raises(ConfigurationError):
            default_processes()


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
class TestChunkBounds:
    def test_covers_every_point_in_order(self):
        for n in (1, 2, 31, 32, 33, 100, 1000):
            bounds = chunk_bounds(n)
            flat = [i for start, stop in bounds
                    for i in range(start, stop)]
            assert flat == list(range(n))

    def test_empty(self):
        assert chunk_bounds(0) == []

    def test_depends_only_on_point_count(self):
        # The invariance lever: the same n always chunks the same way,
        # so telemetry merge order never varies with the pool size.
        assert chunk_bounds(100) == chunk_bounds(100)
        assert len(chunk_bounds(1000)) <= 32


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class TestRunProcessSweep:
    def test_results_in_input_order(self):
        points = list(range(40))
        out = run_process_sweep(
            KernelCall(f"{SELF}:square_kernel"), points, processes=2)
        assert out == [p * p for p in points]

    def test_ordered_under_unequal_chunk_costs(self):
        points = list(range(40))
        out = run_process_sweep(
            KernelCall(f"{SELF}:slow_head_kernel"), points, processes=2)
        assert out == [p * 10 for p in points]

    def test_processes_zero_runs_in_process(self):
        out = run_process_sweep(
            KernelCall(f"{SELF}:square_kernel", (1,)), [1, 2, 3],
            processes=0)
        assert out == [2, 5, 10]

    def test_empty_points(self):
        assert run_process_sweep(
            KernelCall(f"{SELF}:square_kernel"), [], processes=2) == []

    def test_first_exception_propagates(self):
        with pytest.raises(ValueError, match="bad point 5"):
            run_process_sweep(
                KernelCall(f"{SELF}:faulty_kernel"), list(range(40)),
                processes=2)

    def test_worker_crash_is_one_line_error(self):
        # Depending on timing the worker dies while chunks are still
        # being submitted or after — both must surface as a one-line
        # SweepWorkerError naming the kernel and the bisect hint.
        with pytest.raises(SweepWorkerError,
                           match=r"worker died.*crash_kernel.*"
                                 r"REPRO_SWEEP_PROCESSES=0"):
            run_process_sweep(
                KernelCall(f"{SELF}:crash_kernel"), list(range(40)),
                processes=2)
        # The broken pool was discarded; the next sweep gets a fresh
        # one and succeeds.
        out = run_process_sweep(
            KernelCall(f"{SELF}:square_kernel"), [1, 2], processes=2)
        assert out == [1, 4]

    def test_single_worker_pool_matches_serial(self):
        points = list(range(10))
        serial = run_process_sweep(
            KernelCall(f"{SELF}:square_kernel"), points, processes=0)
        pooled = run_process_sweep(
            KernelCall(f"{SELF}:square_kernel"), points, processes=1)
        assert serial == pooled

    def test_run_sweep_routes_kernel_calls(self):
        points = list(range(8))
        assert run_sweep(KernelCall(f"{SELF}:square_kernel"), points,
                         processes=2) == [p * p for p in points]

    def test_run_sweep_keeps_closures_on_threads(self, monkeypatch):
        # A plain closure cannot cross the process boundary; the
        # runner must not try.
        import repro.experiments.runner as runner

        def explode(*args, **kwargs):
            raise AssertionError("closure reached the process pool")

        monkeypatch.setattr(runner, "run_process_sweep", explode)
        assert run_sweep(lambda p: p + 1, [1, 2, 3],
                         processes=4) == [2, 3, 4]


# ----------------------------------------------------------------------
# Keyed RNG
# ----------------------------------------------------------------------
class TestKeyedRng:
    def test_same_key_same_stream(self):
        assert sweep_rng(3, 7).random() == sweep_rng(3, 7).random()
        a = sweep_generator(3, 7).random(4)
        b = sweep_generator(3, 7).random(4)
        assert np.array_equal(a, b)

    def test_different_index_different_stream(self):
        assert sweep_rng(3, 7).random() != sweep_rng(3, 8).random()

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_rng(0, -1)
        with pytest.raises(ConfigurationError):
            sweep_generator(0, -1)


# ----------------------------------------------------------------------
# Shared memory
# ----------------------------------------------------------------------
class TestSharedMemory:
    def test_publish_attach_roundtrip(self):
        source = np.arange(16, dtype=np.float64)
        handle = publish_array(source)
        try:
            view = handle.array()
            assert np.array_equal(view, source)
            assert not view.flags.writeable
        finally:
            release(handle)

    def test_release_unlinks_segment(self):
        handle = publish_array(np.ones(4))
        name = handle.name
        release(handle)
        assert name not in published_segments()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_refcounting(self):
        handle = publish_array(np.ones(4))
        retain(handle)
        release(handle)
        assert handle.name in published_segments()
        release(handle)
        assert handle.name not in published_segments()

    def test_release_is_idempotent(self):
        handle = publish_array(np.ones(4))
        release(handle)
        release(handle)

    def test_retain_unpublished_rejected(self):
        from repro.experiments.parallel import ShmArrayHandle

        with pytest.raises(ConfigurationError, match="not published"):
            retain(ShmArrayHandle(name="psm_nope", shape=(1,),
                                  dtype="<f8"))

    def test_workers_read_shared_array(self):
        source = np.arange(32, dtype=np.float64)
        handle = publish_array(source)
        try:
            out = run_process_sweep(
                KernelCall(f"{SELF}:shm_sum_kernel", (handle,)),
                list(range(8)), processes=2)
            expected = [float(source[p:p + 2].sum())
                        for p in range(8)]
            assert out == expected
        finally:
            release(handle)

    def test_worker_views_are_read_only(self):
        handle = publish_array(np.ones(8))
        try:
            out = run_process_sweep(
                KernelCall(f"{SELF}:write_attempt_kernel", (handle,)),
                [0, 1], processes=2)
            assert out == ["read-only", "read-only"]
        finally:
            release(handle)

    def test_shared_workload_roundtrip(self):
        workload = WorkloadVector.sample_mix(
            (InferenceRequest(1, 8, 4), InferenceRequest(2, 16, 8)),
            64, seed=5)
        shared = publish_workload(workload)
        try:
            attached = shared.attach()
            assert attached.shapes == workload.shapes
            assert np.array_equal(attached.codes, workload.codes)
        finally:
            release_workload(shared)
        assert shared.codes.name not in published_segments()

    def test_no_segment_leak_across_sweeps(self):
        # Sweeps that publish must release: the leak test other
        # modules rely on between pytest runs.
        before = published_segments()
        handle = publish_array(np.zeros(128))
        run_process_sweep(
            KernelCall(f"{SELF}:shm_sum_kernel", (handle,)),
            [0, 1, 2], processes=2)
        release(handle)
        assert published_segments() == before


# ----------------------------------------------------------------------
# Telemetry merge determinism
# ----------------------------------------------------------------------
def _counter_rows(telemetry):
    return [row for row in telemetry.metrics.snapshot()
            if row["type"] == "counter"
            and row["metric"] != "telemetry.chunks"]


class TestTelemetryMerge:
    def test_counters_match_serial_exactly(self):
        points = list(range(24))
        serial = Telemetry()
        with activate(serial):
            run_process_sweep(KernelCall(f"{SELF}:telemetry_kernel"),
                              points, processes=0)
        pooled = Telemetry()
        with activate(pooled):
            run_process_sweep(KernelCall(f"{SELF}:telemetry_kernel"),
                              points, processes=2)
        assert _counter_rows(serial) == _counter_rows(pooled)
        assert pooled.metrics.counter_value("telemetry.chunks") > 0

    def test_histograms_merge_deterministically(self):
        points = list(range(50))
        runs = []
        for processes in (1, 2, 4):
            telemetry = Telemetry()
            with activate(telemetry):
                run_process_sweep(
                    KernelCall(f"{SELF}:telemetry_kernel"), points,
                    processes=processes)
            rows = [row for row in telemetry.metrics.snapshot()
                    if row["type"] == "histogram"]
            runs.append(rows)
        assert runs[0] == runs[1] == runs[2]

    def test_policy_counters_match_serial(self):
        # The satellite regression: ambient policy.*/cache.* counters
        # must flow out of process workers and merge to exactly the
        # serial totals.  Distinct grid points + a config no other
        # test uses keep both sides' caches equally cold.
        config = LiaConfig(enforce_host_capacity=False,
                           prefill_minibatches=7)
        call = KernelCall("policy_map",
                          ("opt-tiny", "spr-a100",
                           __import__("repro.models.sublayers",
                                      fromlist=["Stage"]).Stage.DECODE,
                           config))
        points = [(b, length) for b in (1, 3, 9, 27)
                  for length in (16, 48, 144)]
        clear_caches()
        serial = Telemetry()
        with activate(serial):
            serial_out = run_process_sweep(call, points, processes=0)
        clear_caches()
        pooled = Telemetry()
        with activate(pooled):
            pooled_out = run_process_sweep(call, points, processes=1)
        assert serial_out == pooled_out
        serial_rows = _counter_rows(serial)
        policy_rows = [row for row in serial_rows
                       if str(row["metric"]).startswith(
                           ("policy.", "cache."))]
        assert policy_rows, "expected policy/cache counters"
        assert serial_rows == _counter_rows(pooled)

    def test_no_telemetry_no_merge_overhead(self):
        out = run_process_sweep(
            KernelCall(f"{SELF}:telemetry_kernel"), list(range(6)),
            processes=2)
        assert out == list(range(6))


# ----------------------------------------------------------------------
# Worker-count invariance (property)
# ----------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(8, 64),
                          st.integers(1, 8)),
                min_size=2, max_size=8))
def test_estimates_invariant_across_process_counts(points):
    config = LiaConfig(enforce_host_capacity=False)
    call = KernelCall("estimate", ("opt-tiny", "spr-a100", config))
    baseline = [e.latency
                for e in run_process_sweep(call, points, processes=0)]
    for processes in (1, 2):
        latencies = [e.latency for e in run_process_sweep(
            call, points, processes=processes)]
        assert latencies == baseline
