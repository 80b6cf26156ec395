"""Planar positions and shipping-plan costing.

Coordinates are abstract planar kilometres, not geodetic lat/lon; every
output that carries positions states this so downstream tools cannot
misread them.  Shipping cost per route is fixed-cost plus cost-per-km,
quantized to cents, and routes are grouped by (seller, destination) so
buyers sharing a pickup point share the fixed cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .money import Cents, div_round_half_even, ratio

if TYPE_CHECKING:
    from .allocation import Allocation, Seller

__all__ = [
    "COORDINATE_NOTE",
    "Position",
    "ShippingRoute",
    "ShippingPlan",
    "distance",
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


ROUTE_FIXED_CENTS: Cents = 500  # 5 CU
ROUTE_CENTS_PER_KM = 10  # 1/10 CU


def route_cost(km: float) -> Cents:
    """Fixed cost plus cost per km, the variable part rounded half-even to cents."""
    variable = ROUTE_CENTS_PER_KM * ratio(km)
    return ROUTE_FIXED_CENTS + div_round_half_even(variable.numerator, variable.denominator)


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
) -> ShippingPlan:
    """Group settled parcels into (seller, destination) routes and cost them.

    `orders` is the (buyer_id, quantity) list in join order; units are drawn
    from allocation entries in ascending seller-id order, so the mapping of
    buyers to sellers is deterministic and auditable.  A pickup place given
    in advance is that buyer's entry in `destinations`.
    """
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
        if buyer_id not in destinations:
            raise ValueError(f"no destination for buyer {buyer_id}")

    # Walk the seller unit stream against the buyer unit stream.
    seller_units = [
        (entry.seller_id, entry.quantity) for entry in allocation.entries
    ]
    parcels: dict[tuple[str, Position], int] = {}
    si, remaining_seller = 0, seller_units[0][1] if seller_units else 0
    for buyer_id, q in orders:
        dest = destinations[buyer_id]
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
                cost_cents=route_cost(km),
            )
        )
    total = sum(r.cost_cents for r in routes)
    return ShippingPlan(routes=tuple(routes), total_cost_cents=total)
