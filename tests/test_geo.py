"""Tests for positions and shipping-plan costing."""

import math
import random

import pytest

from fair_engine.allocation import Seller, optimal_allocation
from fair_engine.curves import linear_curve
from fair_engine.geo import (
    Position,
    ShippingCostModel,
    distance,
    shipping_plan,
)


class TestDistance:
    def test_identity(self):
        assert distance(Position(0, 0), Position(0, 0)) == 0.0

    def test_three_four_five(self):
        assert distance(Position(0, 0), Position(3, 4)) == 5.0

    def test_metric_axioms_on_random_points(self):
        rng = random.Random(91)
        points = [Position(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(12)]
        for a in points:
            assert distance(a, a) == 0.0
            for b in points:
                assert distance(a, b) == distance(b, a)
                assert distance(a, b) >= 0.0
                for c in points:
                    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError):
            Position(math.inf, 0.0)


def one_seller(position=Position(0, 0), availability=None):
    return Seller("S1", linear_curve(10, 0, 10), availability=availability, position=position)


class TestShippingPlan:
    def test_cost_model_example(self):
        # 10 km at 0.1 CU/km plus the 5 CU fixed cost -> 6.00
        seller = one_seller()
        alloc = optimal_allocation([seller], 1)
        plan = shipping_plan(alloc, [seller], [("b1", 1)], {"b1": Position(10, 0)})
        assert plan.total_cost_cents == 600

    def test_zero_distance_costs_fixed_only(self):
        seller = one_seller()
        alloc = optimal_allocation([seller], 2)
        plan = shipping_plan(alloc, [seller], [("b1", 2)], {"b1": Position(0, 0)})
        assert plan.total_cost_cents == 500

    def test_shared_pickup_merges_routes(self):
        seller = one_seller()
        alloc = optimal_allocation([seller], 2)
        orders = [("b1", 1), ("b2", 1)]
        spread = shipping_plan(
            alloc, [seller], orders,
            {"b1": Position(5, 0), "b2": Position(0, 5)},
        )
        pickup = Position(5, 0)
        merged = shipping_plan(
            alloc, [seller], orders,
            {"b1": Position(5, 0), "b2": Position(0, 5)},
            pickups={"b1": pickup, "b2": pickup},
        )
        assert len(spread.routes) == 2
        assert len(merged.routes) == 1
        assert merged.total_cost_cents < spread.total_cost_cents

    def test_every_parcel_appears_once(self):
        sellers = [
            Seller("A", linear_curve(10, 1, 5), availability=3, position=Position(0, 0)),
            Seller("B", linear_curve(12, 1, 6), availability=4, position=Position(9, 9)),
        ]
        alloc = optimal_allocation(sellers, 6)
        orders = [("b1", 2), ("b2", 3), ("b3", 1)]
        dests = {
            "b1": Position(1, 1),
            "b2": Position(2, 2),
            "b3": Position(3, 3),
        }
        plan = shipping_plan(alloc, sellers, orders, dests)
        assert sum(r.parcels for r in plan.routes) == 6
        assert plan.total_cost_cents == sum(r.cost_cents for r in plan.routes)

    def test_missing_destination_names_the_buyer(self):
        seller = one_seller()
        alloc = optimal_allocation([seller], 1)
        with pytest.raises(ValueError, match="b1"):
            shipping_plan(alloc, [seller], [("b1", 1)], {})

    def test_order_total_must_match_allocation(self):
        seller = one_seller()
        alloc = optimal_allocation([seller], 3)
        with pytest.raises(ValueError):
            shipping_plan(alloc, [seller], [("b1", 2)], {"b1": Position(0, 1)})

    def test_merging_destinations_never_costs_more(self):
        # merging two buyers served by the same seller onto one of their
        # destinations removes a whole route, so cost can only drop
        rng = random.Random(103)
        for _ in range(80):
            n_buyers = rng.randint(2, 6)
            seller = one_seller(Position(rng.uniform(-5, 5), rng.uniform(-5, 5)))
            orders = [(f"b{i}", rng.randint(1, 3)) for i in range(n_buyers)]
            total = sum(q for _, q in orders)
            alloc = optimal_allocation([seller], total)
            dests = {
                bid: Position(rng.uniform(-20, 20), rng.uniform(-20, 20))
                for bid, _ in orders
            }
            before = shipping_plan(alloc, [seller], orders, dests)
            i, j = rng.sample(range(n_buyers), 2)
            pickup = dests[orders[i][0]]
            merged = shipping_plan(
                alloc, [seller], orders, dests,
                pickups={orders[i][0]: pickup, orders[j][0]: pickup},
            )
            assert merged.total_cost_cents <= before.total_cost_cents

    def test_custom_cost_model(self):
        seller = one_seller()
        alloc = optimal_allocation([seller], 1)
        model = ShippingCostModel(fixed_cents=1000, per_km=ratio_half())
        plan = shipping_plan(
            alloc, [seller], [("b1", 1)], {"b1": Position(4, 0)}, cost_model=model
        )
        assert plan.total_cost_cents == 1000 + 200  # 4 km at 0.5 CU/km


def ratio_half():
    from fractions import Fraction

    return Fraction(1, 2)
