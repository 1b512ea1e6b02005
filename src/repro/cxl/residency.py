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
