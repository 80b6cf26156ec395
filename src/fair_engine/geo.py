"""Planar positions, pickup-point suggestion, and shipping-plan costing.

Coordinates are abstract planar kilometres, not geodetic lat/lon; every
output that carries positions states this so downstream tools cannot
misread them.  Shipping cost per route is fixed-cost plus cost-per-km,
quantized to cents, and routes are grouped by (seller, destination) so
buyers sharing a pickup point share the fixed cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .money import Cents, div_round_half_even, ratio

if TYPE_CHECKING:
    from .allocation import Allocation, Seller

__all__ = [
    "COORDINATE_NOTE",
    "Position",
    "PositionHistory",
    "PickupSuggestion",
    "ShippingRoute",
    "ShippingPlan",
    "ShippingCostModel",
    "distance",
    "suggest_pickups",
    "shipping_plan",
]

COORDINATE_NOTE = "coordinates=planar-km"


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")


ORIGIN = Position(0.0, 0.0)


def distance(a: Position, b: Position) -> float:
    """Euclidean planar distance in km."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class PositionHistory:
    """Timestamped visit trail for one buyer; timestamps non-decreasing."""

    buyer_id: str
    visits: tuple[tuple[Position, float], ...]

    def __post_init__(self) -> None:
        times = [t for _, t in self.visits]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("visit timestamps must be non-decreasing")

    def positions(self) -> tuple[Position, ...]:
        return tuple(p for p, _ in self.visits)


@dataclass(frozen=True)
class PickupSuggestion:
    centroid: Position
    buyer_ids: tuple[str, ...]


def _attendees(
    center: Position,
    pool: Mapping[str, Sequence[Position]],
    radius: float,
    min_visits: int,
) -> list[str]:
    out = []
    for buyer_id, positions in pool.items():
        hits = sum(1 for p in positions if distance(p, center) <= radius)
        if hits >= min_visits:
            out.append(buyer_id)
    return out


def _centroid(points: Sequence[Position]) -> Position:
    n = len(points)
    return Position(sum(p.x for p in points) / n, sum(p.y for p in points) / n)


def suggest_pickups(
    histories: Sequence[PositionHistory],
    radius: float,
    min_visits: int = 1,
    min_buyers: int = 2,
) -> list[PickupSuggestion]:
    """Suggest shared pickup points from recurring buyer locations.

    Greedy clustering over observed visit locations: a candidate point is a
    place someone actually attended, a buyer attends it when at least
    `min_visits` of their visits fall within `radius` of it, and a candidate
    is emitted once at least `min_buyers` distinct buyers attend.  Each buyer
    joins at most one suggestion (best candidate first).  The emitted point
    is the centroid of the supporting visits when every supporter still
    attends it, otherwise the raw candidate location.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if min_visits < 1:
        raise ValueError("min_visits must be at least 1")
    if min_buyers < 2:
        raise ValueError("min_buyers must be at least 2")

    pool: dict[str, tuple[Position, ...]] = {}
    for history in histories:
        if history.buyer_id in pool:
            raise ValueError(f"duplicate history for buyer {history.buyer_id}")
        pool[history.buyer_id] = history.positions()

    candidates: list[Position] = []
    seen: set[tuple[float, float]] = set()
    for history in histories:
        for pos in history.positions():
            key = (pos.x, pos.y)
            if key not in seen:
                seen.add(key)
                candidates.append(pos)

    suggestions: list[PickupSuggestion] = []
    while True:
        best: tuple[int, float, float] | None = None
        best_center: Position | None = None
        best_buyers: list[str] = []
        for cand in candidates:
            buyers = _attendees(cand, pool, radius, min_visits)
            if len(buyers) < min_buyers:
                continue
            rank = (-len(buyers), cand.x, cand.y)
            if best is None or rank < best:
                best, best_center, best_buyers = rank, cand, buyers
        if best_center is None:
            break

        support = [
            p
            for b in best_buyers
            for p in pool[b]
            if distance(p, best_center) <= radius
        ]
        centroid = _centroid(support)
        refined = _attendees(centroid, pool, radius, min_visits)
        if set(best_buyers) <= set(refined):
            center, members = centroid, sorted(refined)
        else:
            center, members = best_center, sorted(best_buyers)
        suggestions.append(PickupSuggestion(centroid=center, buyer_ids=tuple(members)))
        for b in members:
            pool.pop(b, None)

    suggestions.sort(key=lambda s: (-len(s.buyer_ids), s.centroid.x, s.centroid.y))
    return suggestions


@dataclass(frozen=True)
class ShippingCostModel:
    """Route cost = fixed_cents + per_km * distance, rounded to cents."""

    fixed_cents: Cents = 500  # 5 CU
    per_km: Fraction = Fraction(1, 10)  # CU per km

    def route_cost(self, km: float) -> Cents:
        variable = ratio(self.per_km) * 100 * ratio(km)
        return self.fixed_cents + div_round_half_even(
            variable.numerator, variable.denominator
        )


@dataclass(frozen=True)
class ShippingRoute:
    seller_id: str
    destination: Position
    parcels: int
    distance_km: float
    cost_cents: Cents


@dataclass(frozen=True)
class ShippingPlan:
    routes: tuple[ShippingRoute, ...]
    total_cost_cents: Cents


def shipping_plan(
    allocation: "Allocation",
    sellers: Sequence["Seller"],
    orders: Sequence[tuple[str, int]],
    destinations: Mapping[str, Position],
    pickups: Mapping[str, Position] | None = None,
    cost_model: ShippingCostModel | None = None,
) -> ShippingPlan:
    """Group settled parcels into (seller, destination) routes and cost them.

    `orders` is the (buyer_id, quantity) list in join order; units are drawn
    from allocation entries in ascending seller-id order, so the mapping of
    buyers to sellers is deterministic and auditable.  A buyer with an
    accepted pickup assignment ships there instead of to their own
    destination.
    """
    model = cost_model or ShippingCostModel()
    pickups = pickups or {}
    sellers_by_id = {s.id: s for s in sellers}

    total_ordered = sum(q for _, q in orders)
    if total_ordered != allocation.total_quantity:
        raise ValueError(
            f"orders cover {total_ordered} units but allocation has "
            f"{allocation.total_quantity}"
        )
    for buyer_id, q in orders:
        if q < 1:
            raise ValueError(f"order quantity for buyer {buyer_id} must be positive")
        if buyer_id not in pickups and buyer_id not in destinations:
            raise ValueError(f"no destination for buyer {buyer_id}")

    # Walk the seller unit stream against the buyer unit stream.
    seller_units = [
        (entry.seller_id, entry.quantity) for entry in allocation.entries
    ]
    parcels: dict[tuple[str, Position], int] = {}
    si, remaining_seller = 0, seller_units[0][1] if seller_units else 0
    for buyer_id, q in orders:
        dest = pickups.get(buyer_id, destinations.get(buyer_id))
        needed = q
        while needed > 0:
            seller_id, _ = seller_units[si]
            take = min(needed, remaining_seller)
            key = (seller_id, dest)
            parcels[key] = parcels.get(key, 0) + take
            needed -= take
            remaining_seller -= take
            if remaining_seller == 0 and si + 1 < len(seller_units):
                si += 1
                remaining_seller = seller_units[si][1]

    routes: list[ShippingRoute] = []
    for (seller_id, dest), count in sorted(
        parcels.items(), key=lambda kv: (kv[0][0], kv[0][1].x, kv[0][1].y)
    ):
        seller = sellers_by_id.get(seller_id)
        if seller is None:
            raise ValueError(f"allocation references unknown seller {seller_id}")
        km = distance(seller.position, dest)
        routes.append(
            ShippingRoute(
                seller_id=seller_id,
                destination=dest,
                parcels=count,
                distance_km=km,
                cost_cents=model.route_cost(km),
            )
        )
    total = sum(r.cost_cents for r in routes)
    return ShippingPlan(routes=tuple(routes), total_cost_cents=total)
