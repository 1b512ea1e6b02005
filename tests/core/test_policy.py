"""Offload-policy vectors."""

import pytest

from repro.core.policy import (
    FLEXGEN_POLICY,
    FULL_CPU,
    FULL_GPU,
    PARTIAL_CPU,
    PARTIAL_CPU_MOE,
    Device,
    OffloadPolicy,
)
from repro.errors import PolicyError
from repro.models.sublayers import Sublayer


def test_named_policies_match_section71():
    assert str(PARTIAL_CPU) == "(0, 1, 1, 0, 0, 0)"
    assert str(FULL_CPU) == "(1, 1, 1, 1, 1, 1)"
    assert str(FULL_GPU) == "(0, 0, 0, 0, 0, 0)"
    assert str(PARTIAL_CPU_MOE) == "(0, 1, 1, 0, 1, 1)"
    assert FLEXGEN_POLICY == PARTIAL_CPU


def test_convention_p_equals_1_is_cpu():
    assert PARTIAL_CPU.device(Sublayer.ATTENTION_SCORE) is Device.CPU
    assert PARTIAL_CPU.device(Sublayer.FC1) is Device.GPU
    assert PARTIAL_CPU.on_cpu(Sublayer.ATTENTION_CONTEXT)
    assert PARTIAL_CPU.on_gpu(Sublayer.QKV_MAPPING)


def test_p0_equals_p6():
    policy = OffloadPolicy.from_string("000001")
    assert policy.p(0) == 1
    assert policy.p(0) == policy.p(6)


def _crosses(policy, index):
    """Eq. (4)'s activation-transfer condition p_i xor p_(i-1)."""
    return policy.p(index) != policy.p(index - 1)


def test_boundary_crossings():
    policy = OffloadPolicy.from_string("011000")
    # p0 = p6 = 0; crossings at sublayers 2 (0->1) and 4 (1->0).
    assert [i for i in range(1, 7) if _crosses(policy, i)] == [2, 4]


def test_full_policies_never_cross():
    for policy in (FULL_CPU, FULL_GPU):
        assert not any(_crosses(policy, i) for i in range(1, 7))


def test_all_policies_enumerates_64_unique():
    policies = list(OffloadPolicy.all_policies())
    assert len(policies) == 64
    assert len(set(policies)) == 64
    assert FULL_GPU == policies[0]
    assert FULL_CPU == policies[-1]


def test_from_string_variants():
    assert OffloadPolicy.from_string("0,1,1,0,0,0") == PARTIAL_CPU
    assert OffloadPolicy.from_string("0 1 1 0 0 0") == PARTIAL_CPU


def test_cpu_gpu_sublayer_partition():
    on_cpu = [s for s in Sublayer if PARTIAL_CPU.on_cpu(s)]
    assert on_cpu == [Sublayer.ATTENTION_SCORE, Sublayer.ATTENTION_CONTEXT]
    assert sum(PARTIAL_CPU.on_gpu(s) for s in Sublayer) == 4
    assert FULL_CPU.all_cpu and not FULL_GPU.all_cpu


def test_malformed_policies_rejected():
    with pytest.raises(PolicyError):
        OffloadPolicy.from_string("0110")
    with pytest.raises(PolicyError):
        OffloadPolicy.from_string("01100x")
    with pytest.raises(PolicyError):
        OffloadPolicy((0, 1, 2, 0, 0, 0))
    with pytest.raises(PolicyError):
        FULL_CPU.p(7)
