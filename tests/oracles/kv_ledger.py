"""The per-request KV ledger the continuous-batching scheduler used
before its per-tier maps.

:class:`KvResidency` here is that ledger verbatim: one
``{tier: bytes}`` dict per live request, an HBM-holder list rebuilt on
every demotion, and every touched tier re-summed with ``math.fsum``
over all live allocations on release.
:class:`repro.cxl.residency.KvResidency` keeps one insertion-ordered
map per tier instead and must agree with this one exactly: every
return value, every ``used`` float, every allocation and the demotion
counters after every operation (``tests/cxl/test_kv_ledger_differential.py``).
The per-iteration scheduler oracle (``tests/oracles/scheduler_loop.py``)
books its KV here, so the engine-vs-oracle checks stay independent of
the new ledger.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.cxl.residency import KV_TIERS, KvTierCapacities
from repro.errors import ConfigurationError


class KvResidency:
    """Ledger of live KV allocations across the three tiers.

    Requests are identified by an opaque integer id (the scheduler
    uses the request's arrival index).  Admission order doubles as
    coldness order for demotion: the longest-resident request's HBM
    bytes are pushed down first, because its decode is the furthest
    along and new sequences append hot KV every step.
    """

    def __init__(self, capacities: KvTierCapacities) -> None:
        self.capacities = capacities
        self._capacity: Dict[str, float] = dict(
            zip(KV_TIERS, capacities.as_tuple()))
        self._used: Dict[str, float] = {tier: 0.0 for tier in KV_TIERS}
        #: request id -> per-tier bytes; insertion order = admission
        #: order (Python dicts preserve it), which is coldness order.
        self._allocations: Dict[int, Dict[str, float]] = {}
        self.demotions = 0
        self.demoted_bytes = 0.0

    # ------------------------------------------------------------------
    def used(self, tier: str) -> float:
        """Live bytes resident in ``tier``."""
        try:
            return self._used[tier]
        except KeyError:
            raise ConfigurationError(
                f"unknown KV tier {tier!r}; tiers: "
                f"{', '.join(KV_TIERS)}") from None

    def free(self, tier: str) -> float:
        return self._capacity[tier] - self.used(tier)

    @property
    def total_used(self) -> float:
        return sum(self._used.values())

    @property
    def total_free(self) -> float:
        return sum(self._capacity[tier] - self._used[tier]
                   for tier in KV_TIERS)

    @property
    def n_resident(self) -> int:
        return len(self._allocations)

    def allocation(self, request_id: int) -> Dict[str, float]:
        """Copy of one request's per-tier placement."""
        try:
            return dict(self._allocations[request_id])
        except KeyError:
            raise ConfigurationError(
                f"request {request_id} holds no KV allocation"
            ) from None

    def cxl_fraction(self, request_id: int) -> float:
        """Fraction of one request's KV bytes resident in CXL."""
        allocation = self._allocations.get(request_id)
        if not allocation:
            return 0.0
        total = sum(allocation.values())
        if total <= 0.0:
            return 0.0
        return allocation.get("cxl", 0.0) / total

    # ------------------------------------------------------------------
    def fits(self, nbytes: float) -> bool:
        """Whether ``nbytes`` of new KV fit the tiers combined."""
        return nbytes <= self.total_free

    def admit(self, request_id: int, nbytes: float) -> bool:
        """Place ``nbytes`` of KV for ``request_id``; False if full.

        Placement prefers the fastest tiers: HBM, then DDR, then CXL.
        When HBM is full but older residents still hold HBM bytes,
        those bytes are demoted downward to make room — the new
        sequence is the hot one.  Admission succeeds iff the tiers
        *combined* have room; a False return changes nothing.
        """
        if nbytes < 0.0 or math.isnan(nbytes):
            raise ConfigurationError(
                f"KV bytes must be >= 0, got {nbytes}")
        if request_id in self._allocations:
            raise ConfigurationError(
                f"request {request_id} already holds a KV allocation")
        if not self.fits(nbytes):
            return False
        want_hbm = min(nbytes, self._capacity["hbm"])
        if want_hbm > self.free("hbm"):
            self._demote_hbm(want_hbm - self.free("hbm"))
        placed: Dict[str, float] = {}
        remaining = nbytes
        for tier in KV_TIERS:
            if remaining <= 0.0:
                break
            take = min(remaining, self.free(tier))
            if take > 0.0:
                placed[tier] = take
                self._used[tier] += take
                remaining -= take
        # fits() guaranteed room; float cancellation can leave a
        # vanishing residue, absorbed into the last tier with room.
        if remaining > 0.0:
            last = next(tier for tier in reversed(KV_TIERS)
                        if self._capacity[tier] > 0.0
                        or tier == KV_TIERS[-1])
            placed[last] = placed.get(last, 0.0) + remaining
            self._used[last] += remaining
        self._allocations[request_id] = placed
        return True

    def release(self, request_id: int) -> float:
        """Evict one request's KV; returns the bytes freed."""
        try:
            allocation = self._allocations.pop(request_id)
        except KeyError:
            raise ConfigurationError(
                f"request {request_id} holds no KV allocation"
            ) from None
        freed = 0.0
        for tier, nbytes in allocation.items():
            # Re-derive the tier's usage from the surviving
            # allocations rather than subtracting incrementally:
            # admissions and demotions add bytes in a different order
            # than releases subtract them, so incremental updates
            # accumulate float residue that eventually breaks
            # conservation against the allocation ledger (an emptied
            # tier could report ~1e-6 bytes still in use).
            self._used[tier] = math.fsum(
                alloc.get(tier, 0.0)
                for alloc in self._allocations.values())
            freed += nbytes
        return freed

    # ------------------------------------------------------------------
    def _demote_hbm(self, nbytes: float) -> None:
        """Push ``nbytes`` of the coldest residents' HBM KV downward.

        Bytes land in DDR first, CXL second.  Stops early when the
        lower tiers run out of room — the caller's waterfall placement
        then simply takes less HBM.
        """
        remaining = nbytes
        ids: List[int] = [rid for rid, alloc in
                          self._allocations.items()
                          if alloc.get("hbm", 0.0) > 0.0]
        for rid in ids:
            if remaining <= 0.0:
                break
            allocation = self._allocations[rid]
            movable = allocation.get("hbm", 0.0)
            lower_free = self.free("ddr") + self.free("cxl")
            move = min(movable, remaining, lower_free)
            if move <= 0.0:
                break
            left = move
            for tier in ("ddr", "cxl"):
                take = min(left, self.free(tier))
                if take > 0.0:
                    allocation[tier] = allocation.get(tier, 0.0) + take
                    self._used[tier] += take
                    left -= take
            moved = move - left
            allocation["hbm"] = movable - moved
            self._used["hbm"] -= moved
            if allocation["hbm"] <= 0.0:
                del allocation["hbm"]
            remaining -= moved
            self.demotions += 1
            self.demoted_bytes += moved

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the capacity and conservation invariants (tests)."""
        for tier in KV_TIERS:
            if self._used[tier] > self._capacity[tier] * (1 + 1e-12):
                raise AssertionError(
                    f"{tier}: used {self._used[tier]} exceeds "
                    f"capacity {self._capacity[tier]}")
        ledger = sum(sum(alloc.values())
                     for alloc in self._allocations.values())
        if not math.isclose(ledger, self.total_used,
                            rel_tol=1e-9, abs_tol=1e-6):
            raise AssertionError(
                f"conservation broken: allocations sum to {ledger}, "
                f"tiers hold {self.total_used}")
