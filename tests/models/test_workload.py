"""Workload descriptions and generators."""

import numpy as np
import pytest

from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.models.workload import (
    InferenceRequest,
    RequestPoints,
    azure_trace_lengths,
    make_request,
    max_input_len,
    paper_input_lengths,
)
from repro.models.zoo import get_model


def test_request_derived_quantities():
    request = make_request(64, 256, 32)
    assert request.max_context_len == 287
    assert request.total_generated_tokens == 64 * 32


def test_decode_context_lengths_grow_by_one():
    request = make_request(1, 100, 4)
    assert list(request.decode_context_lengths()) == [100, 101, 102, 103]


def test_request_validation():
    for bad in ((0, 10, 10), (1, 0, 10), (1, 10, 0)):
        with pytest.raises(ConfigurationError):
            make_request(*bad)


@pytest.mark.parametrize("bad, message", [
    ((1.5, 128, 4), "batch_size must be an integer, got 1.5"),
    ((True, 128, 4), "batch_size must be an integer, got True"),
    ((2, 128.5, 4), "input_len must be an integer, got 128.5"),
    ((2, 128, 4.0), "output_len must be an integer, got 4.0"),
    ((2, float("nan"), 4), "input_len must be an integer, got nan"),
    ((np.True_, 128, 4), "batch_size must be an integer, got np.True_"),
])
def test_non_integer_fields_fail_at_construction(bad, message):
    with pytest.raises(ConfigurationError) as raised:
        InferenceRequest(*bad)
    assert str(raised.value) == message


def test_numpy_integer_fields_become_ints():
    request = InferenceRequest(np.int64(8), np.int32(128), np.uint8(4))
    assert request == InferenceRequest(8, 128, 4)
    assert [type(value) for value in (request.batch_size,
                                      request.input_len,
                                      request.output_len)] == [int] * 3
    assert hash(request) == hash(InferenceRequest(8, 128, 4))


@pytest.mark.parametrize("call, message", [
    (lambda estimator: estimator.decode_step_grid([1.5], [64]),
     "batch_size must be an integer, got 1.5"),
    (lambda estimator: estimator.decode_step_grid([True], [64]),
     "batch_size must be an integer, got True"),
    (lambda estimator: estimator.prefill_times([1.5], [64]),
     "batch_size must be an integer, got 1.5"),
], ids=["decode-grid-float", "decode-grid-bool", "prefill-float"])
def test_array_entry_points_reject_non_integer_axes(opt_30b, spr_a100,
                                                    call, message):
    with pytest.raises(ConfigurationError) as raised:
        call(LiaEstimator(opt_30b, spr_a100))
    assert str(raised.value) == message


def test_request_points_normalize_numpy_integers():
    points = RequestPoints(np.int64(8), np.array([64, 128], dtype=np.int32),
                           np.uint8(1))
    assert (type(points.batch_size), type(points.output_len)) == (int, int)
    assert points.input_len.dtype == np.int32


def test_paper_lmax_values():
    # §7: L_max is 2016 for L_out=32 and 1792 for L_out=256.
    opt = get_model("opt-175b")
    assert max_input_len(opt, 32) == 2016
    assert max_input_len(opt, 256) == 1792
    assert paper_input_lengths(opt, 32) == [32, 256, 2016]


def test_azure_trace_is_deterministic_and_bounded():
    opt = get_model("opt-175b")
    first = azure_trace_lengths(50, opt, seed=7)
    second = azure_trace_lengths(50, opt, seed=7)
    assert first == second
    assert all(32 <= r.input_len <= 1792 for r in first)


def test_azure_trace_conversation_output_len():
    opt = get_model("opt-175b")
    requests = azure_trace_lengths(10, opt)
    assert all(r.output_len == 256 for r in requests)


def test_azure_trace_rejects_bad_count():
    opt = get_model("opt-175b")
    with pytest.raises(ConfigurationError):
        azure_trace_lengths(0, opt)
