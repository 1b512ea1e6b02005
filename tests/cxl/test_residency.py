"""Property tests for the tiered KV-residency ledger.

The two invariants the module docstring commits to — per-tier bytes
never exceed capacity, and admission/demotion/eviction conserve bytes
— are driven here with hypothesis over random capacity triples and
random admit/release interleavings.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cxl.residency import (
    KV_TIERS,
    KvResidency,
    KvTierCapacities,
    kv_capacities_from_system,
)
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import get_system
from repro.models.zoo import get_model

GB = 1e9

capacity_triples = st.tuples(
    st.floats(min_value=0.0, max_value=64.0),
    st.floats(min_value=0.0, max_value=256.0),
    st.floats(min_value=0.0, max_value=512.0),
).map(lambda gbs: KvTierCapacities(*(value * GB for value in gbs)))

#: (request_id, kv_bytes) admission candidates; sizes span tiny to
#: bigger-than-HBM so the waterfall and demotion paths both trigger.
admissions = st.lists(
    st.floats(min_value=1e6, max_value=128.0 * GB),
    min_size=1, max_size=24)

#: Interleaving pattern: after each admission, release the oldest
#: live request whenever the corresponding draw says so.
release_flags = st.lists(st.booleans(), min_size=24, max_size=24)


@settings(max_examples=80, deadline=None)
@given(capacities=capacity_triples, sizes=admissions,
       flags=release_flags)
def test_invariants_hold_under_random_interleavings(capacities, sizes,
                                                    flags):
    residency = KvResidency(capacities)
    live = []
    for i, (nbytes, release_one) in enumerate(zip(sizes, flags)):
        if residency.admit(i, nbytes):
            live.append(i)
        residency.check_invariants()
        if release_one and live:
            freed = residency.release(live.pop(0))
            assert freed >= 0.0
            residency.check_invariants()
    # Admission succeeds iff the tiers combined had room — re-check
    # against the ledger: total used never exceeds total capacity.
    assert residency.total_used <= capacities.total_bytes * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(capacities=capacity_triples, sizes=admissions)
def test_admission_then_full_drain_conserves_bytes(capacities, sizes):
    residency = KvResidency(capacities)
    admitted_bytes = {}
    for i, nbytes in enumerate(sizes):
        if residency.admit(i, nbytes):
            admitted_bytes[i] = nbytes
    residency.check_invariants()
    for i, nbytes in admitted_bytes.items():
        freed = residency.release(i)
        # Demotion moves bytes between tiers but never changes a
        # request's total; eviction returns exactly what went in.
        assert math.isclose(freed, nbytes, rel_tol=1e-9, abs_tol=1e-3)
    assert residency.n_resident == 0
    for tier in KV_TIERS:
        assert residency.used(tier) <= 1e-3  # float dust only


@settings(max_examples=60, deadline=None)
@given(capacities=capacity_triples,
       nbytes=st.floats(min_value=1e6, max_value=1024.0 * GB))
def test_admit_rejects_iff_combined_tiers_lack_room(capacities,
                                                    nbytes):
    residency = KvResidency(capacities)
    expected = nbytes <= capacities.total_bytes
    assert residency.admit(0, nbytes) == expected
    if not expected:
        # A False return changes nothing.
        assert residency.total_used == 0.0
        assert residency.n_resident == 0


def test_waterfall_prefers_fast_tiers_in_order():
    residency = KvResidency(KvTierCapacities(4 * GB, 8 * GB, 16 * GB))
    assert residency.admit(0, 10 * GB)
    allocation = residency.allocation(0)
    assert allocation["hbm"] == pytest.approx(4 * GB)
    assert allocation["ddr"] == pytest.approx(6 * GB)
    assert "cxl" not in allocation
    residency.check_invariants()


def test_new_sequence_demotes_coldest_resident_from_hbm():
    residency = KvResidency(KvTierCapacities(4 * GB, 4 * GB, 16 * GB))
    assert residency.admit(0, 4 * GB)        # fills HBM
    assert residency.admit(1, 4 * GB)        # demotes request 0 down
    assert residency.demotions == 1
    assert residency.demoted_bytes == pytest.approx(4 * GB)
    assert residency.allocation(0) == {"ddr": pytest.approx(4 * GB)}
    assert residency.allocation(1)["hbm"] == pytest.approx(4 * GB)
    # The next admission demotes again — DDR is full now, so request
    # 1's HBM bytes cascade to CXL and the newest sequence still gets
    # the fast tier.
    assert residency.admit(2, 4 * GB)
    assert residency.allocation(2) == {"hbm": pytest.approx(4 * GB)}
    assert residency.allocation(1) == {"cxl": pytest.approx(4 * GB)}
    assert residency.demotions == 2
    assert residency.cxl_fraction(1) == pytest.approx(1.0)
    assert residency.cxl_fraction(2) == 0.0
    residency.check_invariants()


def test_release_restores_room_for_later_admissions():
    residency = KvResidency(KvTierCapacities(2 * GB, 2 * GB, 0.0))
    assert residency.admit(0, 4 * GB)
    assert not residency.admit(1, 1 * GB)
    assert residency.release(0) == pytest.approx(4 * GB)
    assert residency.admit(1, 4 * GB)
    residency.check_invariants()


def test_ledger_misuse_is_a_clean_error():
    residency = KvResidency(KvTierCapacities.unbounded())
    assert residency.admit(7, GB)
    with pytest.raises(ConfigurationError, match="already holds"):
        residency.admit(7, GB)
    with pytest.raises(ConfigurationError, match="no KV allocation"):
        residency.release(8)
    with pytest.raises(ConfigurationError, match="no KV allocation"):
        residency.allocation(8)
    with pytest.raises(ConfigurationError, match="unknown KV tier"):
        residency.used("nvme")
    with pytest.raises(ConfigurationError, match=">= 0"):
        residency.admit(9, -1.0)
    with pytest.raises(ConfigurationError, match=">= 0"):
        KvTierCapacities(-1.0, 0.0, 0.0)


def test_unbounded_never_blocks():
    residency = KvResidency(KvTierCapacities.unbounded())
    for i in range(32):
        assert residency.admit(i, 100 * GB)
    residency.check_invariants()
    assert residency.n_resident == 32


def test_capacities_from_system_follow_section6_placement():
    spec = get_model("opt-30b")
    base = get_system("spr-a100")
    weights = float(spec.total_param_bytes)

    plain = kv_capacities_from_system(spec, base)
    assert plain.hbm_bytes == pytest.approx(
        0.5 * float(base.gpu.memory_capacity))
    # No expanders: weights stay in DDR and shrink the KV budget.
    assert plain.cxl_bytes == 0.0
    assert plain.ddr_bytes == pytest.approx(
        float(base.cpu.memory.capacity_bytes) - weights)

    cxl_system = base.with_cxl()
    tiered = kv_capacities_from_system(spec, cxl_system)
    # With expanders the §6 policy moves weights to CXL: DDR is all
    # KV, the expander pool is charged for the weights.
    assert tiered.ddr_bytes == pytest.approx(
        float(cxl_system.cpu.memory.capacity_bytes))
    assert tiered.cxl_bytes == pytest.approx(
        float(cxl_system.cxl_pool.capacity_bytes) - weights)


def test_capacities_from_system_reject_weights_beyond_the_cxl_pool():
    # opt-175b needs 325 GiB; two expanders give 256 GiB.
    spec = get_model("opt-175b")
    system = get_system("spr-a100").with_cxl(n_expanders=2)
    with pytest.raises(CapacityError, match="weights need") as excinfo:
        kv_capacities_from_system(spec, system)
    assert "\n" not in str(excinfo.value)
    assert excinfo.value.requested == float(spec.total_param_bytes)
    assert excinfo.value.available == float(
        system.cxl_pool.capacity_bytes)
    # Without expanders the weights stay in DDR and nothing raises.
    assert kv_capacities_from_system(
        spec, get_system("spr-a100")).cxl_bytes == 0.0
