"""Per-request KV-cache residency accounting across memory tiers.

The continuous-batching scheduler (:mod:`repro.serving.scheduler`)
admits and retires requests at every decode iteration; each admitted
request pins its KV cache somewhere in the GPU HBM / CPU DDR / CXL
hierarchy until it completes.  :class:`KvResidency` is the ledger for
those bytes: admission places a request's KV into the fastest tiers
with room (HBM first, then DDR, then CXL), demotes the *coldest*
resident request's HBM bytes downward when a new sequence needs the
fast tier (new sequences are the hot ones — their KV is appended to
and read every step), and releases everything on completion.
The tier budgets come from :func:`kv_capacities_from_system`, the
one place the §6 placement (weights to CXL whenever expanders exist)
sizes them.

The ledger keeps one insertion-ordered ``{request id: bytes}`` map per
tier.  HBM bytes are placed only at admission, so the HBM map is the
demotion order: a demotion walks only HBM holders, and a release
re-sums only the tiers it touches, each over its own map.  Its tier
totals are a list the scheduler reads in place.  Every ``used``
value, demotion count and demoted byte equals that of the
per-request ledger it replaced (``tests/oracles/kv_ledger.py``), float
for float.

Two invariants hold at every point in time, property-tested in
``tests/cxl/test_residency.py``:

* **capacity** — no tier's resident bytes ever exceed its capacity;
* **conservation** — the sum of per-tier used bytes equals the sum of
  live per-request allocations: admission, demotion, and eviction
  move bytes, they never create or destroy them.

All decisions are deterministic functions of the admission order —
no RNG, no wall clock — so scheduler runs are bit-identical across
repeat runs by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec

__all__ = [
    "KV_TIERS",
    "KvResidency",
    "KvTierCapacities",
    "kv_capacities_from_system",
]

#: Tier names, fastest first.  Placement waterfalls down this order;
#: demotion moves bytes from ``hbm`` toward ``cxl``.
KV_TIERS: Tuple[str, str, str] = ("hbm", "ddr", "cxl")


@dataclass(frozen=True)
class KvTierCapacities:
    """KV-cache byte budgets of the three tiers (``inf`` = unbounded)."""

    hbm_bytes: float
    ddr_bytes: float
    cxl_bytes: float

    def __post_init__(self) -> None:
        for name, value in zip(KV_TIERS, self.as_tuple()):
            if math.isnan(value) or value < 0.0:
                raise ConfigurationError(
                    f"{name} KV capacity must be >= 0, got {value}")

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.hbm_bytes, self.ddr_bytes, self.cxl_bytes)

    @property
    def total_bytes(self) -> float:
        return self.hbm_bytes + self.ddr_bytes + self.cxl_bytes

    @classmethod
    def unbounded(cls) -> "KvTierCapacities":
        """The degenerate no-pressure configuration: admission never
        blocks on KV, so scheduling decisions reduce to batch caps."""
        return cls(hbm_bytes=math.inf, ddr_bytes=math.inf,
                   cxl_bytes=math.inf)


#: Fraction of GPU memory the serving stack budgets for KV cache; the
#: rest holds resident layers and working buffers (Optimization-1).
HBM_KV_FRACTION = 0.5


def kv_capacities_from_system(spec: ModelSpec,
                              system: SystemConfig) -> KvTierCapacities:
    """Derive the per-tier KV budgets of one (model, system) pair under
    the §6 placement: the weights move to CXL whenever the system has
    expanders (the scheduler serves large aggregate batches, the
    regime where Observation-1 makes the CXL hop free).

    * **HBM** — :data:`HBM_KV_FRACTION` of GPU memory (the remainder
      is resident layers + working buffers under Optimization-1).
    * **DDR** — the full pool with expanders; without them, CPU memory
      minus the weights (at least 0).
    * **CXL** — the interleaved expander pool minus the weights; zero
      without expanders.  Weights larger than the pool raise a
      :class:`CapacityError`.
    """
    weights = float(spec.total_param_bytes)
    hbm = HBM_KV_FRACTION * float(system.gpu.memory_capacity)
    ddr = float(system.cpu.memory.capacity_bytes)
    if not system.has_cxl:
        return KvTierCapacities(hbm_bytes=hbm,
                                ddr_bytes=max(0.0, ddr - weights),
                                cxl_bytes=0.0)
    pool = system.cxl_pool
    cxl = float(pool.capacity_bytes)
    if weights > cxl:
        raise CapacityError(
            f"{system.name}: {spec.name} weights need "
            f"{weights / 2**30:.1f} GiB but CXL has "
            f"{cxl / 2**30:.1f} GiB",
            requested=weights, available=cxl, device=pool.name)
    return KvTierCapacities(hbm_bytes=hbm, ddr_bytes=ddr,
                            cxl_bytes=cxl - weights)


#: Tier indices in the order a request's tiers first receive bytes:
#: HBM only ever at admission, so first; DDR before CXL, unless a
#: demotion brings a request DDR bytes after it holds CXL ones.  A
#: request's parts are summed in this order, which sets the rounding
#: of what :meth:`KvResidency.release` returns.
_TIER_ORDER = (0, 1, 2)
_CXL_FIRST = (0, 2, 1)
_TIER_INDEX = {tier: index for index, tier in enumerate(KV_TIERS)}


class KvResidency:
    """Ledger of live KV allocations across the three tiers.

    Requests are identified by an opaque integer id (the scheduler
    uses the request's arrival index).  Admission order doubles as
    coldness order for demotion: the longest-resident request's HBM
    bytes are pushed down first, because its decode is the furthest
    along and new sequences append hot KV every step.

    Each tier keeps one insertion-ordered ``{request id: bytes}`` map
    of the requests holding bytes there.  HBM bytes are only ever
    placed at admission, so the HBM map is the demotion order, and a
    demotion walks only HBM holders.  Admission and demotion add and
    subtract tier totals incrementally; a release re-derives each tier
    it touches as the ``math.fsum`` of that tier's map alone.
    """

    def __init__(self, capacities: KvTierCapacities) -> None:
        self.capacities = capacities
        self._capacity = capacities.as_tuple()
        #: Live bytes per tier, in :data:`KV_TIERS` order.  Updated in
        #: place, so a caller may hold the list across operations.
        self.used_bytes: List[float] = [0.0, 0.0, 0.0]
        #: Per tier, request id -> the bytes it holds there (> 0).
        self._held: Tuple[Dict[int, float], ...] = ({}, {}, {})
        #: Live request id -> whether its CXL bytes came before its
        #: DDR bytes (the order :meth:`_parts` lists them in).
        self._live: Dict[int, bool] = {}
        self.demotions = 0
        self.demoted_bytes = 0.0

    # ------------------------------------------------------------------
    def used(self, tier: str) -> float:
        """Live bytes resident in ``tier``."""
        try:
            return self.used_bytes[_TIER_INDEX[tier]]
        except KeyError:
            raise ConfigurationError(
                f"unknown KV tier {tier!r}; tiers: "
                f"{', '.join(KV_TIERS)}") from None

    def free(self, tier: str) -> float:
        used = self.used(tier)
        return self._capacity[_TIER_INDEX[tier]] - used

    @property
    def total_used(self) -> float:
        return sum(self.used_bytes)

    @property
    def total_free(self) -> float:
        return sum(capacity - used for capacity, used
                   in zip(self._capacity, self.used_bytes))

    @property
    def n_resident(self) -> int:
        return len(self._live)

    def _parts(self, request_id: int) -> List[Tuple[int, float]]:
        """``(tier index, bytes)`` of one live request, in the order
        its tiers first received bytes."""
        order = _CXL_FIRST if self._live[request_id] else _TIER_ORDER
        return [(tier, self._held[tier][request_id]) for tier in order
                if request_id in self._held[tier]]

    def allocation(self, request_id: int) -> Dict[str, float]:
        """Copy of one request's per-tier placement."""
        if request_id not in self._live:
            raise ConfigurationError(
                f"request {request_id} holds no KV allocation")
        return {KV_TIERS[tier]: nbytes
                for tier, nbytes in self._parts(request_id)}

    def cxl_fraction(self, request_id: int) -> float:
        """Fraction of one request's KV bytes resident in CXL."""
        if request_id not in self._live:
            return 0.0
        parts = self._parts(request_id)
        total = sum(nbytes for __, nbytes in parts)
        if total <= 0.0:
            return 0.0
        return self._held[2].get(request_id, 0.0) / total

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
        if request_id in self._live:
            raise ConfigurationError(
                f"request {request_id} already holds a KV allocation")
        capacity, used = self._capacity, self.used_bytes
        if not nbytes <= ((capacity[0] - used[0]) + (capacity[1] - used[1])
                          + (capacity[2] - used[2])):
            return False
        want_hbm = min(nbytes, capacity[0])
        if want_hbm > capacity[0] - used[0]:
            self._demote_hbm(want_hbm - (capacity[0] - used[0]))
        remaining = nbytes
        for tier, held in enumerate(self._held):
            if remaining <= 0.0:
                break
            take = min(remaining, capacity[tier] - used[tier])
            if take > 0.0:
                held[request_id] = take
                used[tier] += take
                remaining -= take
        # The combined check guaranteed room; float cancellation can
        # leave a vanishing residue, absorbed into CXL.
        if remaining > 0.0:
            cxl = self._held[2]
            cxl[request_id] = cxl.get(request_id, 0.0) + remaining
            used[2] += remaining
        self._live[request_id] = False
        return True

    def release(self, request_id: int) -> float:
        """Evict one request's KV; returns the bytes freed."""
        if request_id not in self._live:
            raise ConfigurationError(
                f"request {request_id} holds no KV allocation")
        freed = 0.0
        for tier, nbytes in self._parts(request_id):
            held = self._held[tier]
            del held[request_id]
            # Re-derive the tier's usage from its surviving holders
            # rather than subtracting: admissions and demotions add
            # bytes in a different order than releases subtract them,
            # so incremental updates accumulate float residue (an
            # emptied tier could report ~1e-6 bytes still in use).
            self.used_bytes[tier] = math.fsum(held.values())
            freed += nbytes
        del self._live[request_id]
        return freed

    # ------------------------------------------------------------------
    def _demote_hbm(self, nbytes: float) -> None:
        """Push ``nbytes`` of the coldest residents' HBM KV downward.

        Bytes land in DDR first, CXL second.  Stops early when the
        lower tiers run out of room — the caller's waterfall placement
        then simply takes less HBM.
        """
        remaining = nbytes
        __, ddr_capacity, cxl_capacity = self._capacity
        hbm_used, ddr_used, cxl_used = self.used_bytes
        hbm, ddr, cxl = self._held
        drained: List[int] = []
        for rid, movable in hbm.items():
            if remaining <= 0.0:
                break
            ddr_free = ddr_capacity - ddr_used
            cxl_free = cxl_capacity - cxl_used
            move = min(movable, remaining, ddr_free + cxl_free)
            if move <= 0.0:
                break
            left = move
            take = min(left, ddr_free)
            if take > 0.0:
                if rid not in ddr and rid in cxl:
                    self._live[rid] = True
                ddr[rid] = ddr.get(rid, 0.0) + take
                ddr_used += take
                left -= take
            take = min(left, cxl_free)
            if take > 0.0:
                cxl[rid] = cxl.get(rid, 0.0) + take
                cxl_used += take
                left -= take
            moved = move - left
            rest = movable - moved
            if rest <= 0.0:
                drained.append(rid)
            else:
                hbm[rid] = rest
            hbm_used -= moved
            remaining -= moved
            self.demotions += 1
            self.demoted_bytes += moved
        self.used_bytes[:] = (hbm_used, ddr_used, cxl_used)
        for rid in drained:
            del hbm[rid]

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the capacity and conservation invariants (tests)."""
        for tier, used, capacity in zip(KV_TIERS, self.used_bytes,
                                        self._capacity):
            if used > capacity * (1 + 1e-12):
                raise AssertionError(
                    f"{tier}: used {used} exceeds capacity {capacity}")
        ledger = sum(sum(held.values()) for held in self._held)
        if not math.isclose(ledger, self.total_used,
                            rel_tol=1e-9, abs_tol=1e-6):
            raise AssertionError(
                f"conservation broken: allocations sum to {ledger}, "
                f"tiers hold {self.total_used}")
