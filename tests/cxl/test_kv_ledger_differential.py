"""The per-tier KV ledger against the per-request one it replaced.

:class:`repro.cxl.residency.KvResidency` keeps one ``{request id:
bytes}`` map per tier; ``tests/oracles/kv_ledger.py`` keeps one
``{tier: bytes}`` dict per request.  Both are driven with the same
drawn ``admit``/``release`` sequences — capacities of 0.0, ``inf`` and
tight budgets, integer and non-integer byte counts, refused
admissions, double admits and unknown releases — and after every
operation they must agree exactly: the return value or error, every
tier's ``used`` float, every live request's allocation, ``total_free``
and the demotion counters.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.cxl.residency import KV_TIERS, KvResidency, KvTierCapacities
from repro.errors import ConfigurationError
from tests.oracles import kv_ledger

#: Typical request size: tight budgets are a few of these.
UNIT = 1000.0

CAPACITY = st.one_of(
    st.sampled_from([0.0, math.inf, 0.5 * UNIT, UNIT, 1.5 * UNIT,
                     3 * UNIT]),
    st.floats(min_value=0.0, max_value=10 * UNIT))
NBYTES = st.one_of(
    st.integers(0, int(3 * UNIT)).map(float),
    st.floats(min_value=0.0, max_value=3 * UNIT),
    st.sampled_from([-1.0, math.nan]))
#: Few ids, so the same id is often admitted twice or released when
#: it holds nothing.
REQUEST_ID = st.integers(0, 7)
OPS = st.lists(st.one_of(
    st.tuples(st.just("admit"), REQUEST_ID, NBYTES),
    st.tuples(st.just("release"), REQUEST_ID)), max_size=60)


def _exact(value):
    """A float as its exact bit pattern (``-0.0`` and ``0.0`` differ);
    anything else as itself."""
    return value.hex() if isinstance(value, float) else value


def _apply(ledger, op):
    """One operation's return value, or the error it raised."""
    try:
        return _exact(getattr(ledger, op[0])(*op[1:]))
    except ConfigurationError as error:
        return ("error", str(error))


def _state(ledger, live):
    return {
        "used": [_exact(ledger.used(tier)) for tier in KV_TIERS],
        "allocations": {rid: {tier: _exact(nbytes) for tier, nbytes
                              in ledger.allocation(rid).items()}
                        for rid in live},
        "n_resident": ledger.n_resident,
        "total_free": _exact(ledger.total_free),
        "total_used": _exact(ledger.total_used),
        "demotions": ledger.demotions,
        "demoted_bytes": _exact(ledger.demoted_bytes),
        "cxl_fraction": {rid: _exact(ledger.cxl_fraction(rid))
                         for rid in live},
    }


@settings(max_examples=300, deadline=None)
@given(capacities=st.tuples(CAPACITY, CAPACITY, CAPACITY), ops=OPS)
# Request 3 holds CXL bytes before a demotion hands it DDR bytes, and
# its release sums its parts in that order: HBM + CXL + DDR rounds
# differently from HBM + DDR + CXL here.
@example(capacities=(1500.0, 1500.0, 1500.0),
         ops=[("admit", 1, 1318.1653373729548),
              ("admit", 2, 1080.6298919712863),
              ("admit", 3, 1592.7609347765874), ("release", 2),
              ("admit", 4, 281.79766387862526), ("release", 1),
              ("release", 3)])
def test_per_tier_ledger_matches_the_per_request_ledger(capacities, ops):
    capacities = KvTierCapacities(*capacities)
    ledger = KvResidency(capacities)
    oracle = kv_ledger.KvResidency(capacities)
    for op in ops:
        assert _apply(ledger, op) == _apply(oracle, op), op
        live = list(oracle._allocations)
        assert _state(ledger, live) == _state(oracle, live), op
        assert ledger.used_bytes == [ledger.used(tier)
                                     for tier in KV_TIERS]
