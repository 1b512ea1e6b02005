"""Property-based tests for the batcher, the serving simulator and
the estimator (fuzz style)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.estimator import (
    LiaEstimator,
    check_host_capacity,
    host_memory_usage,
)
from repro.core.optimizer import optimal_policy
from repro.hardware.system import get_system
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.batcher import pack_requests
from repro.serving.simulator import ServingSimulator


# ----------------------------------------------------------------------
# Batcher: membership conservation and feasibility for any corpus.
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(lengths=st.lists(st.integers(16, 1984), min_size=1, max_size=60),
       max_batch=st.integers(1, 64))
def test_batcher_conserves_and_fits(lengths, max_batch):
    spec = get_model("opt-30b")
    system = get_system("spr-a100")
    config = LiaConfig()
    requests = [InferenceRequest(1, length, 32) for length in lengths]
    batches = pack_requests(requests, spec, system, config,
                            max_batch=max_batch)
    assert sum(b.n_members for b in batches) == len(requests)
    for batch in batches:
        assert batch.n_members <= max_batch
        assert 0.0 < batch.prompt_efficiency <= 1.0
        check_host_capacity(
            host_memory_usage(spec, batch.request, system, config),
            system)
    # Padded lengths cover every member.
    longest = max(lengths)
    assert max(b.request.input_len for b in batches) == longest


# ----------------------------------------------------------------------
# Serving simulator: FIFO, non-overlap, conservation.
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(gaps=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
       input_len=st.integers(16, 512))
def test_simulator_fifo_invariants(gaps, input_len):
    spec = get_model("opt-30b")
    system = get_system("spr-a100")
    estimator = LiaEstimator(spec, system,
                             LiaConfig(enforce_host_capacity=False))
    simulator = ServingSimulator(estimator)
    arrivals = list(np.cumsum(gaps))
    requests = [InferenceRequest(1, input_len, 8) for __ in gaps]
    report = simulator.run(requests, arrivals)
    served = report.served
    # FIFO: starts are ordered; the server never overlaps requests.
    for earlier, later in zip(served, served[1:]):
        assert later.start >= earlier.finish - 1e-9
    for record in served:
        assert record.start >= record.arrival
        assert record.finish > record.start
    assert 0.0 < report.utilization <= 1.0


# ----------------------------------------------------------------------
# Estimator: throughput is monotone in batch size until capacity-ish
# regions, and latency monotone in every request dimension.
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 1024), input_len=st.integers(16, 1024),
       output_len=st.integers(1, 64))
@example(batch=596, input_len=16, output_len=1)
@example(batch=625, input_len=512, output_len=64)
@example(batch=1, input_len=554, output_len=1)
def test_estimator_latency_monotone_in_request(batch, input_len,
                                               output_len):
    spec = get_model("opt-30b")
    system = get_system("spr-a100")
    config = LiaConfig(enforce_host_capacity=False)
    estimator = LiaEstimator(spec, system, config)
    base = estimator.estimate(
        InferenceRequest(batch, input_len, output_len))
    more_tokens = estimator.estimate(
        InferenceRequest(batch, input_len, output_len + 1))
    longer_prompt = estimator.estimate(
        InferenceRequest(batch, input_len + 64, output_len))
    bigger_batch = estimator.estimate(
        InferenceRequest(batch + 16, input_len, output_len))
    assert more_tokens.latency >= base.latency
    # What Eq. (1) guarantees: its objective, the winner's serial
    # layer latency, never decreases in L, in either stage.
    for stage in Stage:
        shorter, longer = (
            optimal_policy(spec, stage, batch, length, system,
                           config).layer_time
            for length in (input_len, input_len + 64))
        assert longer >= shorter
    # Executed latency is overlapped, not serial, so a longer prompt
    # that flips a policy can run faster: at B=1, L_in 554 -> 618 the
    # prefill policy goes full-CPU -> full-GPU and latency drops to
    # 0.9981x.  With both policies unchanged, latency is monotone up
    # to the 0.999 envelope.
    if (longer_prompt.prefill_policy == base.prefill_policy
            and longer_prompt.decode_policy == base.decode_policy):
        assert longer_prompt.latency >= base.latency * 0.999
    # Latency is NOT monotone in batch: a larger batch can cross an
    # Eq. (1) policy-search boundary and unlock a better offload
    # split (up to ~19% lower latency at e.g. batch 609 -> 625,
    # L_in=512).  The monotone quantity is throughput — more requests
    # never make the batch *less* efficient (small dips at the same
    # boundaries, hence the 5% envelope).
    base_tput = base.request.total_generated_tokens / base.latency
    bigger_tput = (bigger_batch.request.total_generated_tokens
                   / bigger_batch.latency)
    assert bigger_tput >= base_tput * 0.95
