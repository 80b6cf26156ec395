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


def _dp_tables(
    sellers: Sequence[Seller], q_max: int
) -> tuple[np.ndarray, list[np.ndarray], list[Seller], int]:
    """Min-cost DP over sellers for every demand 0..q_max in one sweep.

    State key packs (total cost in cents, sellers used) as cost*width+count
    so one int64 comparison applies both criteria.  Scanning per-seller
    quantities in ascending order with strict-improvement updates makes the
    tie-break deterministic: cheapest first, then fewest sellers, then
    quantity pushed toward the lexicographically smallest seller ids.
    """
    ordered = sorted(sellers, key=lambda s: s.id)
    width = len(ordered) + 1
    cost_bound = sum(s.capacity(q_max) * s.curve.price_at(1) for s in ordered)
    if cost_bound * width >= (1 << 60):  # keep packed int64 keys overflow-free
        raise ValueError("cost scale too large for the exact solver")
    key = np.full(q_max + 1, _INF, dtype=np.int64)
    key[0] = 0
    choices: list[np.ndarray] = []
    for seller in ordered:
        x_max = seller.capacity(q_max)
        choice = np.zeros(q_max + 1, dtype=np.int32)
        best = key.copy()
        for x in range(1, x_max + 1):
            delta = x * seller.curve.price_at(x) * width + 1
            source = key[: q_max + 1 - x]
            cand = source + delta
            improves = (source < _INF) & (cand < best[x:])
            if improves.any():
                best[x:][improves] = cand[improves]
                choice[x:][improves] = x
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
    fewest sellers used, then lexicographically smallest seller ids.
    """
    _check_request(sellers, q)

    key, choices, ordered, _ = _dp_tables(sellers, q)
    if key[q] >= _INF:
        reachable = int(np.max(np.nonzero(key < _INF)[0]))
        raise InfeasibleDemandError(q, reachable)
    return _build_allocation(_reconstruct(choices, ordered, q))


@dataclass(frozen=True)
class FairPricePoint:
    q: int
    price_cents: Fraction
    allocation: Allocation


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
    """Sweep demands 1..q_max and record the chosen allocation per demand."""
    _check_quantity(q_max)
    if not sellers:
        raise ValueError("no sellers to build a price curve from")
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown allocation method {method!r}")
    _sellers_by_id(sellers)

    feasible_max = total_availability(sellers)
    q_cap = q_max if feasible_max is None else min(q_max, feasible_max)

    allocations: list[Allocation] = []
    if method == "exact" and q_cap >= 1:
        key, choices, ordered, _ = _dp_tables(sellers, q_cap)
        for q in range(1, q_cap + 1):
            if key[q] >= _INF:
                break
            allocations.append(_build_allocation(_reconstruct(choices, ordered, q)))
    elif method == "greedy":
        allocations = [greedy_allocation(sellers, q) for q in range(1, q_cap + 1)]
    points = tuple(
        FairPricePoint(q=q, price_cents=alloc.fair_unit_price_cents, allocation=alloc)
        for q, alloc in enumerate(allocations, start=1)
    )
    return FairPriceCurve(points=points, q_feasible_max=feasible_max)


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
