"""Split an aggregated demand across capacity-limited sellers.

Given seller price curves and stock limits, the engine answers: how should a
demand of q units be divided so the resulting fair unit price (the quantity-
weighted mean of each seller's price at its own allocated volume) is as low
as possible?

Two solvers are provided.  The greedy fill ranks sellers by the unit price
they offer on the portion they can cover and drains them in rank order; it
is fast and mirrors how a human would shop, but it is a heuristic.  The
exact solver is a dynamic program over sellers with remaining-quantity
state; total cost is separable per seller but non-convex (the plateau kink
breaks marginal-cost arguments), so enumerating per-seller quantities is the
sound route.  One DP sweep yields optima for every demand 1..q_max at once,
which is what the fair-level price curve needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curves import PriceCurve, _check_quantity
from .geo import ORIGIN, Position
from .money import Cents

__all__ = [
    "Seller",
    "AllocationEntry",
    "Allocation",
    "FairPricePoint",
    "FairPriceCurve",
    "OptimalPoint",
    "InfeasibleDemandError",
    "fair_unit_price",
    "greedy_allocation",
    "optimal_allocation",
    "fair_price_curve",
    "optimal_demand",
    "total_availability",
]

class InfeasibleDemandError(Exception):
    """Demand exceeds what the seller set can supply."""

    def __init__(self, demand: int, available: int):
        self.demand = demand
        self.available = available
        self.shortfall = demand - available
        super().__init__(
            f"demand {demand} exceeds total availability {available} "
            f"(short by {self.shortfall})"
        )


@dataclass(frozen=True)
class Seller:
    """A supplier: price curve, stock limit (None = unlimited), position."""

    id: str
    curve: PriceCurve
    availability: int | None = None
    position: Position = ORIGIN

    def __post_init__(self) -> None:
        if self.availability is not None and self.availability < 0:
            raise ValueError(f"seller {self.id}: availability must be >= 0")

    def capacity(self, cap: int) -> int:
        """Units this seller can supply, clipped to `cap`."""
        if self.availability is None:
            return cap
        return min(self.availability, cap)


def total_availability(sellers: Sequence[Seller]) -> int | None:
    """Sum of availabilities; None when any seller is unlimited."""
    total = 0
    for seller in sellers:
        if seller.availability is None:
            return None
        total += seller.availability
    return total


@dataclass(frozen=True)
class AllocationEntry:
    seller_id: str
    quantity: int
    unit_price_cents: Cents

    @property
    def cost_cents(self) -> Cents:
        return self.quantity * self.unit_price_cents


@dataclass(frozen=True)
class Allocation:
    """Per-seller quantities covering one demand, with the resulting price."""

    entries: tuple[AllocationEntry, ...]
    total_quantity: int
    total_cost_cents: Cents
    fair_unit_price_cents: Fraction

    def quantity_for(self, seller_id: str) -> int:
        for entry in self.entries:
            if entry.seller_id == seller_id:
                return entry.quantity
        return 0

    def summary(self) -> str:
        return "+".join(f"{e.seller_id}:{e.quantity}" for e in self.entries)


def _build_allocation(quantities: Sequence[tuple[Seller, int]]) -> Allocation:
    entries = []
    for seller, q in sorted(quantities, key=lambda pair: pair[0].id):
        if q == 0:
            continue
        entries.append(
            AllocationEntry(
                seller_id=seller.id,
                quantity=q,
                unit_price_cents=seller.curve.price_at(q),
            )
        )
    total_q = sum(e.quantity for e in entries)
    total_cost = sum(e.cost_cents for e in entries)
    return Allocation(
        entries=tuple(entries),
        total_quantity=total_q,
        total_cost_cents=total_cost,
        fair_unit_price_cents=Fraction(total_cost, total_q),
    )


def _sellers_by_id(sellers: Sequence[Seller]) -> dict[str, Seller]:
    by_id: dict[str, Seller] = {}
    for seller in sellers:
        if seller.id in by_id:
            raise ValueError(f"duplicate seller id {seller.id}")
        by_id[seller.id] = seller
    return by_id


def fair_unit_price(allocation: Allocation, sellers: Sequence[Seller]) -> Fraction:
    """Quantity-weighted mean price of an allocation, validated and exact.

    Each seller's curve is evaluated at the quantity allocated to that
    seller (volume discounts apply per supplier, not to the whole demand).
    """
    if not allocation.entries:
        raise ValueError("allocation is empty")
    by_id = _sellers_by_id(sellers)
    total_q = 0
    total_cost = 0
    for entry in allocation.entries:
        seller = by_id.get(entry.seller_id)
        if seller is None:
            raise ValueError(f"allocation references unknown seller {entry.seller_id}")
        if entry.quantity < 1:
            raise ValueError(f"allocated quantity for {entry.seller_id} must be >= 1")
        if seller.availability is not None and entry.quantity > seller.availability:
            raise InfeasibleDemandError(entry.quantity, seller.availability)
        total_q += entry.quantity
        total_cost += entry.quantity * seller.curve.price_at(entry.quantity)
    return Fraction(total_cost, total_q)


def _check_request(sellers: Sequence[Seller], q: int) -> None:
    """Reject a bad demand, an empty or ambiguous seller set, or a shortfall."""
    _check_quantity(q)
    if not sellers:
        raise ValueError("no sellers to allocate from")
    _sellers_by_id(sellers)
    available = total_availability(sellers)
    if available is not None and q > available:
        raise InfeasibleDemandError(q, available)


def greedy_allocation(sellers: Sequence[Seller], q: int) -> Allocation:
    """Fill the demand from the best-ranked seller down until covered.

    Sellers are ranked by the unit price each offers on the portion it can
    cover, i.e. its curve evaluated at min(q, availability), ascending, ties
    by seller id.  Each seller in rank order is drained to capacity until
    the demand is met.
    """
    _check_request(sellers, q)

    usable = [s for s in sellers if s.capacity(q) > 0]
    ranked = sorted(usable, key=lambda s: (s.curve.price_at(s.capacity(q)), s.id))
    remaining = q
    fills: list[tuple[Seller, int]] = []
    for seller in ranked:
        if remaining == 0:
            break
        take = min(seller.capacity(q), remaining)
        fills.append((seller, take))
        remaining -= take
    return _build_allocation(fills)


_INF = 1 << 62
_DP_BLOCK_CELLS = 1 << 18  # candidate cells per numpy step, so memory stays O(q)
_DP_CELL_BUDGET = 1 << 30  # most cells one sweep may fill; n=200 unlimited q=2000 is 8.0e8


def _dp_tables(
    sellers: Sequence[Seller], q_max: int
) -> tuple[np.ndarray, list[np.ndarray], list[Seller], int]:
    """Min-cost DP over sellers for every demand 0..q_max in one sweep.

    State key packs (total cost in cents, sellers used) as cost*width+count
    so one int64 comparison applies both criteria.  Each seller's
    candidates key[q - x] + delta(x), x = 0..capacity, are laid out as a
    (q, x) block and reduced with argmin, which keeps the smallest x among
    equal keys; a later block of x replaces the running best only on strict
    improvement.  That is the tie-break of scanning x upward: cheapest
    first, then fewest sellers, then quantity pushed toward the
    lexicographically smallest seller ids.  A candidate built on an
    unreachable key stays above _INF, so it never wins.

    A sweep fills sum(capacity) * (q_max + 1) cells; one over the budget is
    refused before any price is read or array allocated.
    """
    cells = sum(s.capacity(q_max) for s in sellers) * (q_max + 1)
    if cells > _DP_CELL_BUDGET:
        raise ValueError(
            f"demand {q_max} needs {cells} DP cells, over the exact solver's "
            f"budget of {_DP_CELL_BUDGET}"
        )
    ordered = sorted(sellers, key=lambda s: s.id)
    width = len(ordered) + 1
    cost_bound = sum(s.capacity(q_max) * s.curve.price_at(1) for s in ordered)
    if cost_bound * width >= (1 << 60):  # keep packed int64 keys overflow-free
        raise ValueError("cost scale too large for the exact solver")
    key = np.full(q_max + 1, _INF, dtype=np.int64)
    key[0] = 0
    rows = np.arange(q_max + 1)
    step = max(1, _DP_BLOCK_CELLS // (q_max + 1))
    choices: list[np.ndarray] = []
    for seller in ordered:
        x_max = seller.capacity(q_max)
        delta = np.array(  # x = 0 uses no seller
            [0] + [x * seller.curve.price_at(x) * width + 1 for x in range(1, x_max + 1)],
            dtype=np.int64,
        )
        padded = np.full(x_max + q_max + 1, _INF, dtype=np.int64)
        padded[x_max:] = key  # padded[x_max + i] is key[i], _INF for i < 0
        stride = padded.strides[0]
        for lo in range(0, x_max + 1, step):
            hi = min(lo + step, x_max + 1)
            # shifted[q, k] is key[q - x] for x = lo + k
            shifted = np.lib.stride_tricks.as_strided(
                padded[x_max - lo :],
                shape=(q_max + 1, hi - lo),
                strides=(stride, -stride),
                writeable=False,
            )
            cand = shifted + delta[lo:hi]
            pick = cand.argmin(axis=1)
            value = cand[rows, pick]
            if lo == 0:
                best, choice = value, pick.astype(np.int32)
            else:
                improves = value < best
                best[improves] = value[improves]
                choice[improves] = pick[improves] + lo
        key = best
        choices.append(choice)
    return key, choices, ordered, width


def _reconstruct(
    choices: list[np.ndarray], ordered: Sequence[Seller], q: int
) -> list[tuple[Seller, int]]:
    fills: list[tuple[Seller, int]] = []
    remaining = q
    for seller, choice in zip(reversed(ordered), reversed(choices)):
        x = int(choice[remaining])
        if x:
            fills.append((seller, x))
            remaining -= x
    assert remaining == 0, "DP reconstruction must consume the whole demand"
    return fills


def optimal_allocation(sellers: Sequence[Seller], q: int) -> Allocation:
    """Minimum-total-cost split of q units across the sellers.

    Exact dynamic program, O(n * q * max availability); ties resolved toward
    fewest sellers used, then lexicographically smallest seller ids.  The
    split is point q of the exact fair price curve: a point does not depend
    on how far the curve reaches.
    """
    _check_request(sellers, q)
    return fair_price_curve(sellers, q).points[q - 1].allocation


class FairPricePoint:
    """One demand on a fair price curve: its unit price and the allocation behind it.

    A point of an exact curve keeps the DP tables instead of an allocation
    and rebuilds the allocation the first time it is read: a fair reads the
    prices on every join, the allocations only when they are written out.
    """

    __slots__ = ("q", "price_cents", "_allocation", "_tables")

    def __init__(
        self,
        q: int,
        price_cents: Fraction,
        allocation: Allocation | None = None,
        *,
        tables: tuple[list[np.ndarray], list[Seller]] | None = None,
    ):
        if (allocation is None) == (tables is None):
            raise ValueError("a fair price point needs an allocation or the DP tables")
        self.q = q
        self.price_cents = price_cents
        self._allocation = allocation
        self._tables = tables

    @property
    def allocation(self) -> Allocation:
        if self._allocation is None:
            choices, ordered = self._tables
            self._allocation = _build_allocation(_reconstruct(choices, ordered, self.q))
        return self._allocation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FairPricePoint):
            return NotImplemented
        return (self.q, self.price_cents, self.allocation) == (
            other.q, other.price_cents, other.allocation
        )

    def __repr__(self) -> str:
        return (
            f"FairPricePoint(q={self.q!r}, price_cents={self.price_cents!r}, "
            f"allocation={self.allocation!r})"
        )


@dataclass(frozen=True)
class FairPriceCurve:
    """Fair-level unit price for each feasible aggregated demand.

    Defined for 1 <= q <= q_feasible_max (None marks unlimited supply, in
    which case the sweep stops at the requested q_max).  Unlike a single
    seller's curve this one may be non-monotone: once the cheapest seller's
    stock is exhausted the next allocation mixes in a pricier supplier.
    """

    points: tuple[FairPricePoint, ...]
    q_feasible_max: int | None

    def price_at(self, q: int) -> Fraction:
        _check_quantity(q)
        if q > len(self.points):
            raise ValueError(f"demand {q} beyond curve range 1..{len(self.points)}")
        return self.points[q - 1].price_cents

    def is_monotone_non_increasing(self) -> bool:
        return all(
            b.price_cents <= a.price_cents
            for a, b in zip(self.points, self.points[1:])
        )


def fair_price_curve(
    sellers: Sequence[Seller],
    q_max: int,
    method: str = "exact",
) -> FairPriceCurve:
    """Sweep demands 1..q_max and record the price and allocation per demand.

    The exact method prices every demand from one DP sweep; each point's
    allocation is rebuilt from the DP tables when it is first read.
    """
    _check_quantity(q_max)
    if not sellers:
        raise ValueError("no sellers to build a price curve from")
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown allocation method {method!r}")
    _sellers_by_id(sellers)

    feasible_max = total_availability(sellers)
    q_cap = q_max if feasible_max is None else min(q_max, feasible_max)

    points: list[FairPricePoint] = []
    if method == "exact" and q_cap >= 1:
        key, choices, ordered, width = _dp_tables(sellers, q_cap)
        tables = (choices, ordered)
        for q, packed in enumerate(key[1:].tolist(), start=1):
            if packed >= _INF:
                break
            # packed is cost*width + sellers used, so the cost is its quotient
            points.append(FairPricePoint(q, Fraction(packed // width, q), tables=tables))
    elif method == "greedy":
        for q in range(1, q_cap + 1):
            alloc = greedy_allocation(sellers, q)
            points.append(FairPricePoint(q, alloc.fair_unit_price_cents, alloc))
    return FairPriceCurve(points=tuple(points), q_feasible_max=feasible_max)


@dataclass(frozen=True)
class OptimalPoint:
    """Global minimum of a fair price curve; ties go to the lowest demand."""

    q_star: int
    z_star_cents: Fraction


def optimal_demand(curve: FairPriceCurve) -> OptimalPoint:
    """Scan for the minimum price; on ties keep the smallest demand."""
    if not curve.points:
        raise ValueError("fair price curve is empty")
    best = curve.points[0]
    for point in curve.points[1:]:
        if point.price_cents < best.price_cents:
            best = point
    return OptimalPoint(q_star=best.q, z_star_cents=best.price_cents)
