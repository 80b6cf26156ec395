"""Tests for demand allocation: greedy fill, exact solver, fair price curve.

The exact solver is checked against a brute-force oracle that enumerates
every integer split of the demand; the oracle knows nothing about the DP.
"""

import random
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fixtures import random_small_instances
from oracles import (
    brute_force_min_cost,
    first_minimum,
    repriced,
    scan_allocation,
    scan_dp_tables,
)

from fair_engine import allocation as allocation_mod
from fair_engine.allocation import (
    FairPriceCurve,
    FairPricePoint,
    InfeasibleDemandError,
    Seller,
    fair_price_curve,
    greedy_allocation,
    optimal_allocation,
    optimal_demand,
    total_availability,
)
from fair_engine.curves import (
    LinearPlateauCurve,
    TabularCurve,
    linear_curve,
    lower_envelope,
    tabular_curve,
)
from fair_engine.fileio import allocation_rows, fair_curve_rows, read_sellers_csv
from fair_engine.synth import PopulationSpec, generate_sellers

GOLDEN_CURVES = Path(__file__).parent / "data" / "golden" / "curves.csv"


def two_capped_sellers():
    a = Seller("A", linear_curve(10, 1, 8), availability=2)
    b = Seller("B", linear_curve(12, 1, 9), availability=2)
    return [a, b]


class TestFairUnitPrice:
    def test_weighted_mean(self):
        # A supplies 2 units at 9 CU, B supplies 1 at 12 CU -> (18+12)/3 = 10
        sellers = two_capped_sellers()
        alloc = optimal_allocation(sellers, 3)
        assert alloc.fair_unit_price_cents == repriced(alloc, sellers) == Fraction(1000)

    def test_single_seller_degenerates_to_curve_price(self):
        seller = Seller("A", linear_curve(20, 2, 10), availability=50)
        alloc = optimal_allocation([seller], 4)
        assert alloc.fair_unit_price_cents == repriced(alloc, [seller]) == seller.curve.price_at(4)


class TestGreedyAllocation:
    def test_best_seller_covers_small_demand(self):
        sellers = two_capped_sellers()
        alloc = greedy_allocation(sellers, 2)
        assert alloc.summary() == "A:2"

    def test_rank_then_fill(self):
        # quality index at q=3: A offers 9 on its 2 units, B offers 11 -> A first
        sellers = two_capped_sellers()
        alloc = greedy_allocation(sellers, 3)
        assert alloc.summary() == "A:2+B:1"
        assert alloc.fair_unit_price_cents == Fraction(1000)

    def test_full_saturation(self):
        sellers = two_capped_sellers()
        alloc = greedy_allocation(sellers, 4)
        assert [(e.seller_id, e.quantity) for e in alloc.entries] == [("A", 2), ("B", 2)]

    def test_infeasible_names_shortfall(self):
        with pytest.raises(InfeasibleDemandError) as err:
            greedy_allocation(two_capped_sellers(), 5)
        assert err.value.shortfall == 1
        assert "short by 1" in str(err.value)

    def test_never_beats_exact(self):
        for inst in random_small_instances(seed=23, count=150):
            greedy = greedy_allocation(inst.sellers, inst.demand)
            exact = optimal_allocation(inst.sellers, inst.demand)
            assert greedy.fair_unit_price_cents >= exact.fair_unit_price_cents


class TestOptimalAllocation:
    def test_worked_example(self):
        # A:2,B:1 costs 30; the alternative A:1,B:2 costs 10+22 = 32
        alloc = optimal_allocation(two_capped_sellers(), 3)
        assert alloc.summary() == "A:2+B:1"
        assert alloc.total_cost_cents == 3000
        assert alloc.fair_unit_price_cents == Fraction(1000)

    def test_single_unit_goes_to_envelope_best(self):
        sellers = [
            Seller("A", linear_curve(10, 1, 8), availability=4),
            Seller("B", linear_curve(9, 0, 9), availability=4),
        ]
        alloc = optimal_allocation(sellers, 1)
        assert alloc.summary() == "B:1"

    def test_matches_brute_force_on_random_instances(self):
        for inst in random_small_instances(seed=31, count=250):
            alloc = optimal_allocation(inst.sellers, inst.demand)
            assert alloc.total_cost_cents == brute_force_min_cost(
                inst.sellers, inst.demand
            )
            assert alloc.total_quantity == inst.demand
            for entry in alloc.entries:
                seller = next(s for s in inst.sellers if s.id == entry.seller_id)
                assert entry.quantity <= seller.availability

    def test_unlimited_sellers_single_sourced(self):
        # with no stock limits the whole demand goes to the envelope-best
        # seller; verified against brute force on small cases
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 4)
            sellers = []
            for i in range(n):
                sat = rng.randint(100, 5000)
                p1 = rng.randint(sat, 15000)
                rate = Fraction(rng.randint(0, 300), 100)
                sellers.append(
                    Seller(
                        f"S{i}",
                        LinearPlateauCurve(p1_cents=p1, rate=rate, sat_cents=sat),
                    )
                )
            q = rng.randint(1, 12)
            alloc = optimal_allocation(sellers, q)
            env = lower_envelope([(s.id, s.curve) for s in sellers], q)
            assert len(alloc.entries) == 1
            assert alloc.entries[0].seller_id == env.points[q - 1].seller_id
            assert alloc.total_cost_cents == brute_force_min_cost(sellers, q)

    def test_tie_breaks_prefer_fewer_then_lower_ids(self):
        flat = linear_curve(5, 0, 5)
        sellers = [Seller(s, flat, availability=4) for s in ("B", "A", "C")]
        alloc = optimal_allocation(sellers, 3)
        assert alloc.summary() == "A:3"

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleDemandError):
            optimal_allocation(two_capped_sellers(), 9)

    def test_rejects_empty_seller_set(self):
        with pytest.raises(ValueError):
            optimal_allocation([], 1)


class TestFairPriceCurve:
    def test_unlimited_availability_equals_envelope(self):
        rng = random.Random(41)
        sellers = []
        for i in range(8):
            sat = rng.randint(100, 6000)
            p1 = rng.randint(sat, 15000)
            rate = Fraction(rng.randint(0, 400), 100)
            sellers.append(
                Seller(f"S{i}", LinearPlateauCurve(p1_cents=p1, rate=rate, sat_cents=sat))
            )
        curve = fair_price_curve(sellers, 120)
        env = lower_envelope([(s.id, s.curve) for s in sellers], 120)
        assert curve.q_feasible_max is None
        for point in curve.points:
            assert point.price_cents == env.points[point.q - 1].price_cents
        assert curve.is_monotone_non_increasing()

    def test_single_seller_truncated_at_availability(self):
        seller = Seller("A", linear_curve(30, 1, 20), availability=6)
        curve = fair_price_curve([seller], 50)
        assert curve.q_feasible_max == 6
        assert [p.q for p in curve.points] == [1, 2, 3, 4, 5, 6]
        for point in curve.points:
            assert point.price_cents == seller.curve.price_at(point.q)

    def test_finite_availability_can_be_non_monotone(self):
        # once A's 2 cheap units are gone the mix with B raises the price
        sellers = [
            Seller("A", linear_curve(10, 1, 5), availability=2),
            Seller("B", linear_curve(30, 1, 25), availability=10),
        ]
        curve = fair_price_curve(sellers, 12)
        assert not curve.is_monotone_non_increasing()

    def test_greedy_never_below_exact(self):
        for inst in random_small_instances(seed=43, count=60):
            exact = fair_price_curve(inst.sellers, inst.demand, method="exact")
            greedy = fair_price_curve(inst.sellers, inst.demand, method="greedy")
            for pe, pg in zip(exact.points, greedy.points):
                assert pg.price_cents >= pe.price_cents

    def test_envelope_lower_bound(self):
        for inst in random_small_instances(seed=47, count=60):
            curve = fair_price_curve(inst.sellers, inst.demand)
            env = lower_envelope([(s.id, s.curve) for s in inst.sellers], inst.demand)
            for point in curve.points:
                assert point.price_cents >= env.points[point.q - 1].price_cents
                best = env.points[point.q - 1]
                best_seller = next(s for s in inst.sellers if s.id == best.seller_id)
                if best_seller.capacity(point.q) >= point.q:
                    assert point.price_cents == best.price_cents

    def test_bigger_availability_never_raises_the_curve(self):
        rng = random.Random(53)
        for _ in range(10):
            curves = []
            for i in range(5):
                sat = rng.randint(100, 6000)
                p1 = rng.randint(sat, 15000)
                rate = Fraction(rng.randint(0, 400), 100)
                curves.append(
                    (f"S{i}", LinearPlateauCurve(p1_cents=p1, rate=rate, sat_cents=sat))
                )
            small = [Seller(sid, c, availability=3) for sid, c in curves]
            large = [Seller(sid, c, availability=7) for sid, c in curves]
            curve_small = fair_price_curve(small, 15)
            curve_large = fair_price_curve(large, 15)
            for ps, pl in zip(curve_small.points, curve_large.points):
                assert pl.price_cents <= ps.price_cents

    def test_allocations_are_feasible_and_sum_to_demand(self):
        for inst in random_small_instances(seed=59, count=40):
            curve = fair_price_curve(inst.sellers, inst.demand)
            caps = {s.id: s.availability for s in inst.sellers}
            for point in curve.points:
                allocation = curve.allocation(point.q)
                assert allocation.total_quantity == point.q
                for entry in allocation.entries:
                    assert entry.quantity <= caps[entry.seller_id]

    def test_dp_matches_the_upward_scan(self, monkeypatch):
        # keys and choices equal the loop reference, ties included, whether
        # the quantities come in one block or in several
        rng = random.Random(67)
        flat = linear_curve(5, 0, 5)
        markets = [
            ([Seller(s, flat, availability=4) for s in ("B", "A", "C")], 12),
            ([Seller(s, flat) for s in ("B", "A")], 9),
            ([Seller("U", linear_curve(9, "0.5", 6)), *two_capped_sellers()], 15),
            ([Seller("Z1", flat, availability=0), Seller("U", linear_curve(9, "0.5", 6)),
              Seller("Z0", flat, availability=0), *two_capped_sellers()], 11),
        ]
        markets += [(inst.sellers, inst.demand) for inst in random_small_instances(seed=61, count=30)]
        for _ in range(5):
            curves = [linear_curve(rng.randint(50, 120), rng.choice(["0", "0.5", "2"]), 40)
                      for _ in range(6)]
            sellers = [Seller(f"S{i}", c, availability=rng.choice([0, rng.randint(0, 15)]))
                       for i, c in enumerate(curves)]
            markets.append((sellers, rng.randint(1, 40)))
        expected = [scan_dp_tables(sellers, q) for sellers, q in markets]
        for cells in (allocation_mod._DP_BLOCK_CELLS, 1, 40):
            monkeypatch.setattr(allocation_mod, "_DP_BLOCK_CELLS", cells)
            for (sellers, q), (keys, choices) in zip(markets, expected):
                key, got, *_ = allocation_mod._dp_tables(sellers, q)
                assert [k if k < allocation_mod._INF else None for k in key.tolist()] == keys
                assert [c.tolist() for c in got] == choices

    def test_prices_are_read_without_building_allocations(self, monkeypatch):
        built = []
        build = allocation_mod._build_allocation
        monkeypatch.setattr(
            allocation_mod, "_build_allocation", lambda *args: built.append(1) or build(*args)
        )
        sellers = two_capped_sellers()
        curve = fair_price_curve(sellers, 4)
        optimal_demand(curve)
        curve.price_at(3)
        assert built == []
        allocation = curve.allocation(3)
        assert len(built) == 1
        assert allocation == optimal_allocation(sellers, 3)

    def test_greedy_prices_are_read_without_building_allocations(self, monkeypatch):
        calls, sweeps = [], []
        greedy = allocation_mod.greedy_allocation
        monkeypatch.setattr(
            allocation_mod, "greedy_allocation",
            lambda sellers, q: calls.append(q) or greedy(sellers, q),
        )
        blocks = allocation_mod._greedy_takes
        monkeypatch.setattr(  # record each sweep's demand range lo..hi
            allocation_mod, "_greedy_takes",
            lambda *args: sweeps.append(args[3:5]) or blocks(*args),
        )
        sellers = two_capped_sellers()
        curve = fair_price_curve(sellers, 4, method="greedy")
        optimal_demand(curve)
        curve.price_at(3)
        assert sweeps == [(1, 4)]  # the build's cost sweep
        allocation = curve.allocation(3)
        assert sweeps == [(1, 4), (3, 3)]  # a split read sweeps its own demand alone
        texts = curve.summaries()
        assert curve.summaries() == texts
        assert sweeps == [(1, 4), (3, 3), (1, 4)]  # every demand's fills, swept once and kept
        later = [curve.allocation(point.q) for point in curve.points]
        assert sweeps[3:] == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert calls == []
        assert allocation == later[2] == greedy(sellers, 3)
        assert texts == [greedy(sellers, point.q).summary() for point in curve.points]

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    @pytest.mark.parametrize("unlimited", [False, True])
    def test_fills_are_built_once_on_the_first_split_read(self, unlimited, method):
        # a capped market runs the DP or the greedy sweep, an unlimited one the envelope;
        # the table of every demand is built once, on the first `summaries()` read, and a
        # split read asks for its own demand alone, before and after that table exists
        sellers = [replace(s, availability=None) if unlimited else s for s in two_capped_sellers()]
        asked = []
        built = fair_price_curve(sellers, 4, method=method)
        curve = replace(built, _fills=lambda lo, hi: asked.append((lo, hi)) or built._fills(lo, hi))
        optimal_demand(curve)
        curve.price_at(3)
        assert asked == []
        first = curve.allocation(3)
        assert asked == [(3, 3)]
        texts = curve.summaries()
        assert curve.summaries() == texts
        assert asked == [(3, 3), (1, 4)]
        allocations = [curve.allocation(point.q) for point in reversed(curve.points)][::-1]
        assert asked[2:] == [(4, 4), (3, 3), (2, 2), (1, 1)]
        assert first == allocations[2]
        assert texts == [allocation.summary() for allocation in allocations]
        if unlimited:
            envelope = lower_envelope([(s.id, s.curve) for s in sellers], 4)
            assert [a.entries for a in allocations] == [
                ((p.seller_id, p.q, p.price_cents),) for p in envelope.points
            ]

    def test_points_and_prices_are_made_from_the_costs_when_read(self):
        sellers = two_capped_sellers()
        curve = fair_price_curve(sellers, 6)
        assert curve.costs == tuple(brute_force_min_cost(sellers, q) for q in range(1, 5))
        assert curve._prices == {}  # a build makes no price
        assert curve.price_at(3) is curve.price_at(3)  # kept on the first read
        assert list(curve._prices) == [3]
        points = curve.points
        assert len(points) == 4
        assert points[1] == FairPricePoint(2, curve.costs[1], Fraction(curve.costs[1], 2))
        assert points[-1] == points[3] == tuple(points)[3]
        assert [p.q for p in reversed(points)] == [4, 3, 2, 1]
        for index in (4, -5):
            with pytest.raises(IndexError):
                points[index]
        assert curve.price_at(3) is points[2].price_cents
        for bad in (True, 3.0, Fraction(3), 0, 5):  # refused, though 1 and 3 are kept
            with pytest.raises(ValueError):
                curve.price_at(bad)
        # two curves are equal when their costs are, and not otherwise
        same = fair_price_curve(sellers, 4)
        assert tuple(same.points) == tuple(points) and same == curve
        shorter = fair_price_curve(sellers, 3)
        assert tuple(shorter.points) != tuple(points) and shorter != curve

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_a_split_off_the_curve_is_refused(self, method):
        curve = fair_price_curve(two_capped_sellers(), 6, method=method)
        assert len(curve.points) == 4
        for q in (0, 5):
            with pytest.raises(ValueError):
                curve.allocation(q)

    def test_greedy_costs_beyond_int64_stay_exact(self):
        # sum(capacity * price(1)) is 1.5e19, over 2**63; S9's own price is too
        sellers = [
            Seller(f"S{i}", LinearPlateauCurve(10**17, Fraction(10**15 * (i + 1)), 10**16),
                   availability=50)
            for i in range(3)
        ]
        for extra in ([], [Seller("S9", LinearPlateauCurve(10**19, Fraction(10**18), 10**17),
                                  availability=4)]):
            market = sellers + extra
            curve = fair_price_curve(market, 160, method="greedy")
            assert len(curve.points) == total_availability(market)
            for point in curve.points:
                expected = greedy_allocation(market, point.q)
                assert point.price_cents == expected.fair_unit_price_cents

    def test_sellers_without_stock_take_no_memory(self):
        unlimited = Seller("U", linear_curve(100, "0.01", 50))
        empty = [Seller(f"Z{i:04d}", linear_curve(5, 0, 5), availability=0) for i in range(2000)]
        tracemalloc.start()
        try:
            curve = fair_price_curve([*empty, unlimited], 2000)
            last = curve.allocation(2000)  # walks the choices back for every demand
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (q + 1)-entry choice array, or a row of walked quantities, per
        # empty seller would be 16 MB alone
        assert peak < 4_000_000
        assert last.summary() == "U:2000"
        alone = fair_price_curve([unlimited], 2000)
        assert [p.price_cents for p in curve.points] == [p.price_cents for p in alone.points]

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            fair_price_curve(two_capped_sellers(), 4, method="magic")

    def test_rejects_empty_seller_set(self):
        with pytest.raises(ValueError):
            fair_price_curve([], 4)


def _curve_from_prices(prices_cents):
    """Assemble a FairPriceCurve literal for optimum-scan tests."""
    return FairPriceCurve(
        costs=tuple(q * price for q, price in enumerate(prices_cents, start=1)),
        q_feasible_max=len(prices_cents),
        _fills=None,  # the optimum scan reads no split
    )


class TestOptimalDemand:
    def test_plateau_tie_breaks_to_lowest_quantity(self):
        curve = _curve_from_prices([1000, 900, 900, 950])
        best = optimal_demand(curve)
        assert (best.q_star, best.z_star_cents) == (2, Fraction(900))

    def test_strictly_decreasing_curve_ends_at_last_point(self):
        curve = _curve_from_prices([500, 400, 300, 200])
        assert optimal_demand(curve).q_star == 4

    def test_constant_curve_returns_first_point(self):
        curve = _curve_from_prices([700] * 9)
        assert optimal_demand(curve).q_star == 1

    def test_matches_direct_scan_on_random_plateau_curves(self):
        rng = random.Random(61)
        for _ in range(120):
            prices = []
            level = rng.randint(500, 2000)
            while len(prices) < 30:
                run = rng.randint(1, 5)
                prices.extend([level] * run)
                level += rng.randint(-300, 100)
                level = max(level, 1)
            curve = _curve_from_prices(prices[:30])
            best = optimal_demand(curve)
            expected_price = min(prices[:30])
            expected_q = prices.index(expected_price) + 1
            assert best.z_star_cents == expected_price
            assert best.q_star == expected_q

    def test_rejects_empty_curve(self):
        with pytest.raises(ValueError):
            optimal_demand(FairPriceCurve(costs=(), q_feasible_max=0, _fills=None))

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)), min_size=1, max_size=30)
    )
    def test_integer_scans_agree_with_the_fraction_scans(self, draws):
        # costs p*q + b tie across demands often (1*2+2 and 2*2+0, say)
        costs = [p * q + b for q, (p, b) in enumerate(draws, start=1)]
        curve = FairPriceCurve(costs=tuple(costs), q_feasible_max=None, _fills=None)
        prices = [Fraction(cost, q) for q, cost in enumerate(costs, start=1)]
        best = optimal_demand(curve)
        assert (best.q_star, best.z_star_cents) == first_minimum(prices)
        assert curve.is_monotone_non_increasing() == all(
            b <= a for a, b in zip(prices, prices[1:])
        )


def test_total_availability():
    sellers = two_capped_sellers()
    assert total_availability(sellers) == 4
    assert total_availability(sellers + [Seller("C", linear_curve(5, 0, 5))]) is None


@st.composite
def small_curves(draw):
    """A linear-plateau or a step curve in whole cents."""
    if draw(st.booleans()):
        p1 = draw(st.integers(100, 2000))
        sat = draw(st.integers(1, p1))
        return LinearPlateauCurve(p1, Fraction(draw(st.integers(0, 200)), 100), sat)
    cuts = draw(st.lists(st.integers(2, 12), max_size=3, unique=True))
    prices = draw(st.lists(st.integers(1, 2000), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1, unique=True))
    return TabularCurve(tuple(zip([1] + sorted(cuts), sorted(prices, reverse=True))))


@st.composite
def small_markets(draw, unlimited=False):
    """Up to 4 sellers with stock <= 6 (or unlimited, if allowed), and a demand horizon <= 12.

    Sellers draw their curves from a pool that may be smaller than the
    market, so some share a curve and tie on every price.
    """
    stock = st.integers(0, 6)
    if unlimited:
        stock = st.one_of(st.none(), stock)
    n = draw(st.integers(1, 4))
    pool = st.sampled_from(draw(st.lists(small_curves(), min_size=1, max_size=n)))
    sellers = [Seller(f"S{i}", draw(pool), availability=draw(stock)) for i in range(n)]
    return sellers, draw(st.integers(1, 12))


@given(small_markets())
def test_curve_price_is_plain_cost_over_quantity(market):
    sellers, q_max = market
    for method in ("exact", "greedy"):
        curve = fair_price_curve(sellers, q_max, method=method)
        for point in curve.points:
            alloc = curve.allocation(point.q)
            assert alloc.total_quantity == point.q
            assert point.price_cents == alloc.fair_unit_price_cents
            assert point.price_cents == repriced(alloc, sellers)
            if method == "exact":
                assert point.price_cents * point.q == brute_force_min_cost(sellers, point.q)


@given(small_markets(unlimited=True))
def test_curve_points_do_not_depend_on_the_horizon(market):
    # a settlement reads point q of a curve built to the fair's horizon, and
    # optimal_allocation reads it from a curve built to q: both are one point
    sellers, horizon = market
    curve = fair_price_curve(sellers, horizon)
    for point in curve.points:
        short = fair_price_curve(sellers, point.q)
        assert (short.points[point.q - 1], short.allocation(point.q)) == (
            point, curve.allocation(point.q)
        )
        assert point.price_cents * point.q == brute_force_min_cost(sellers, point.q)


@given(small_markets(unlimited=True), st.sampled_from([1, 5, allocation_mod._DP_BLOCK_CELLS]))
def test_greedy_curve_is_greedy_allocation_at_every_demand(market, block_cells):
    # the sweep, whether its demands come in one block or in several, prices
    # each demand as the per-demand fill does, ties, empty and unlimited stock included
    sellers, q_max = market
    with mock.patch.object(allocation_mod, "_DP_BLOCK_CELLS", block_cells):
        curve = fair_price_curve(sellers, q_max, method="greedy")
        texts = curve.summaries()
        allocations = [curve.allocation(point.q) for point in curve.points]
    total = total_availability(sellers)
    assert len(curve.points) == len(texts) == (q_max if total is None else min(q_max, total))
    for point, text, allocation in zip(curve.points, texts, allocations):
        expected = greedy_allocation(sellers, point.q)
        assert point.price_cents == expected.fair_unit_price_cents
        assert allocation == expected
        assert text == expected.summary()


@given(small_markets(unlimited=True), st.sampled_from([1, 5, allocation_mod._DP_BLOCK_CELLS]))
def test_dp_tables_are_the_upward_scan(market, block_cells):
    # stock short of the horizon, sellers without stock between stocked ones
    # and unlimited sellers: the rows cut at the reachable demand, the
    # reversed keys and the merge across blocks of x give the scan's tables
    sellers, q_max = market
    with mock.patch.object(allocation_mod, "_DP_BLOCK_CELLS", block_cells):
        key, choices, *_ = allocation_mod._dp_tables(sellers, q_max)
    expected_keys, expected_choices = scan_dp_tables(sellers, q_max)
    assert [k if k < allocation_mod._INF else None for k in key.tolist()] == expected_keys
    assert [c.tolist() for c in choices] == expected_choices


@given(small_markets(unlimited=True), st.randoms(use_true_random=False))
def test_exact_splits_are_the_scan_at_every_demand_read_in_any_order(market, rng):
    # whichever point is read first walks the choices back for all of them;
    # each split is the upward scan's, in id order, priced from the curves
    sellers, q_max = market
    by_id = {s.id: s for s in sellers}
    curve = fair_price_curve(sellers, q_max)
    points = list(curve.points)
    rng.shuffle(points)
    for point in points:
        alloc = curve.allocation(point.q)
        assert {e.seller_id: e.quantity for e in alloc.entries} == scan_allocation(sellers, point.q)
        assert [e.seller_id for e in alloc.entries] == sorted(e.seller_id for e in alloc.entries)
        for entry in alloc.entries:
            assert entry.unit_price_cents == by_id[entry.seller_id].curve.price_at(entry.quantity)
        assert alloc.total_quantity == point.q
        assert alloc.total_cost_cents == point.price_cents * point.q


def tie_heavy_market() -> tuple[list[Seller], int]:
    """Twelve sellers on three shared curves, so many splits tie on cost."""
    pool = [linear_curve(20, "0.5", 10), linear_curve(20, "0.5", 10),
            tabular_curve([(1, 15), (4, 12)])]
    return [Seller(f"S{i:02d}", pool[i % 3], availability=2 + i % 4) for i in range(12)], 45


def lifecycle_market() -> tuple[list[Seller], int]:
    """50 generated sellers, stock drawn from 20..60, demands to 300: a `fair_lifecycle` fair."""
    rng = random.Random(300)
    population = generate_sellers(PopulationSpec(n_sellers=50, seed=300))
    return [replace(s, availability=rng.randint(20, 60)) for s in population], 300


@pytest.mark.parametrize("market", [tie_heavy_market, lifecycle_market])
def test_one_demand_walk_is_its_column_of_the_range_walk(market):
    sellers, q_max = market()
    curve = fair_price_curve(sellers, q_max)
    starts, ids, quantities, prices = curve._fills(1, len(curve.costs))
    for q in range(1, len(curve.costs) + 1):
        lo, hi = starts[q - 1], starts[q]
        column = (ids[lo:hi], quantities[lo:hi], prices[lo:hi])
        assert curve._fills(q, q) == ([0, hi - lo], *column)
        assert curve.allocation(q).entries == tuple(zip(*column))


def test_exact_splits_read_first_on_several_threads_are_the_same():
    # every thread's first read may walk the choices; each sees a whole walk
    sellers = [Seller(f"S{i}", linear_curve(20 + i, "0.5", 5 + i), availability=3 + i % 4)
               for i in range(12)]
    fresh = fair_price_curve(sellers, 60)
    expected = [fresh.allocation(p.q) for p in fresh.points]
    curve = fair_price_curve(sellers, 60)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def read(i):
        barrier.wait(timeout=10)
        results[i] = [curve.allocation(p.q) for p in curve.points]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8


@st.composite
def unlimited_markets(draw):
    """1-5 sellers without stock limits, ids shuffled, and a demand horizon <= 12.

    The sellers draw from a pool of linear and step curves that may be
    smaller than the market, so several sellers can share one curve.
    """
    n = draw(st.integers(1, 5))
    pool = st.sampled_from(draw(st.lists(small_curves(), min_size=1, max_size=n)))
    ids = draw(st.permutations([f"S{i}" for i in range(n)]))
    return [Seller(sid, draw(pool)) for sid in ids], draw(st.integers(1, 12))


@settings(max_examples=60)
@given(unlimited_markets())
def test_unlimited_curves_are_the_scan_and_the_brute_force_at_every_demand(market):
    # the lower envelope prices both methods: one seller, the lowest id among
    # the cheapest, as the DP's upward scan picks it
    sellers, q_max = market
    curves = [fair_price_curve(sellers, q_max, method=m) for m in ("exact", "greedy")]
    for q in range(1, q_max + 1):
        split = scan_allocation(sellers, q)
        summary = "+".join(f"{sid}:{x}" for sid, x in sorted(split.items()))
        cost = brute_force_min_cost(sellers, q)
        for curve in curves:
            point = curve.points[q - 1]
            assert point.price_cents * q == cost
            assert curve.allocation(q).summary() == summary
            assert curve.allocation(q).total_cost_cents == cost


def test_only_a_market_with_stock_limits_runs_the_dp(monkeypatch):
    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(allocation_mod, "_dp_tables", no_dp)
    unlimited = [Seller("B", linear_curve(9, "0.5", 6)), Seller("A", linear_curve(8, 0, 8))]
    curve = fair_price_curve(unlimited, 20)
    assert [curve.allocation(q).summary() for q in (1, 2)] == ["A:1", "A:2"]
    assert curve.allocation(20).summary() == "B:20"
    # capped sellers that have all sold out leave a market of unlimited ones
    sold_out = [*unlimited, Seller("C", linear_curve(5, 0, 5), availability=0),
                Seller("0", linear_curve(1, 0, 1), availability=0)]
    assert fair_price_curve(sold_out, 20).summaries() == curve.summaries()
    mixed = [*unlimited, Seller("C", linear_curve(5, 0, 5), availability=3)]
    with pytest.raises(AssertionError, match="the DP ran"):
        fair_price_curve(mixed, 20)


def test_an_unlimited_market_prices_both_methods_from_one_envelope(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the greedy sweep ran")

    monkeypatch.setattr(allocation_mod, "_greedy_costs", no_sweep)
    unlimited = [Seller("B", linear_curve(9, "0.5", 6)), Seller("A", linear_curve(8, 0, 8))]
    exact, greedy = (fair_price_curve(unlimited, 20, method=m) for m in ("exact", "greedy"))
    assert [p.price_cents for p in greedy.points] == [p.price_cents for p in exact.points]
    assert greedy.summaries() == exact.summaries()
    assert exact.summaries()[::19] == ["A:1", "B:20"]
    with pytest.raises(AssertionError, match="the greedy sweep ran"):
        fair_price_curve([*unlimited, Seller("C", linear_curve(5, 0, 5), availability=3)], 20,
                         method="greedy")


def test_unlimited_costs_beyond_int64_stay_exact():
    # sum(q * price(1)) is about 3.2e21, over 2**63: the greedy sweep takes
    # Python ints, and the exact curve refuses the cost scale as the DP did
    sellers = [
        Seller(f"S{i}", LinearPlateauCurve(10**19, Fraction(10**17 * (i + 1)), 10**18))
        for i in range(2)
    ]
    curve = fair_price_curve(sellers, 160, method="greedy")
    for point in curve.points:
        expected = greedy_allocation(sellers, point.q)
        assert point.price_cents == expected.fair_unit_price_cents
        assert curve.allocation(point.q) == expected
    with pytest.raises(ValueError, match="cost scale too large for the exact solver"):
        fair_price_curve(sellers, 160)


def test_sellers_without_stock_leave_the_cost_scale_as_it_was():
    # the DP's key width counts only the sellers with stock, and so does the
    # cost-scale check: 2,000 sold-out sellers refuse nothing the seller alone builds
    rich = Seller("R", TabularCurve(((1, 1 << 50),)), availability=10)
    sold_out = [Seller(f"Z{i:04d}", linear_curve(5, 0, 5), availability=0) for i in range(2000)]
    for method in ("exact", "greedy"):
        alone = fair_price_curve([rich], 20, method=method)
        crowd = fair_price_curve([*sold_out, rich], 20, method=method)
        assert len(alone.points) == 10
        assert crowd.costs == alone.costs
        assert crowd.summaries() == alone.summaries()


@st.composite
def tabular_sellers(draw, seller_id):
    """A step-curve seller: no stock limit one time in five, else 0-40 units."""
    cuts = draw(st.lists(st.integers(2, 300), max_size=3, unique=True))
    prices = draw(st.lists(st.integers(1, 5000), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1, unique=True))
    curve = TabularCurve(tuple(zip([1] + sorted(cuts), sorted(prices, reverse=True))))
    stock = None if draw(st.integers(0, 4)) == 0 else draw(st.integers(0, 40))
    return Seller(seller_id, curve, availability=stock)


@st.composite
def tabular_markets(draw):
    """Up to 40 tabular sellers and a demand horizon <= 300."""
    n = draw(st.integers(1, 40))
    sellers = [draw(tabular_sellers(f"S{i:02d}")) for i in range(n)]
    return sellers, draw(st.integers(1, 300))


@settings(max_examples=15)
@given(tabular_markets(), tabular_sellers("X"))
def test_adding_a_seller_never_raises_an_exact_price_nor_shortens_the_curve(market, extra):
    sellers, q_max = market
    before = fair_price_curve(sellers, q_max).points
    after = fair_price_curve([*sellers, extra], q_max).points
    assert len(after) >= len(before)
    for pb, pa in zip(before, after):
        assert pa.price_cents <= pb.price_cents


@settings(max_examples=15)
@given(tabular_markets(), st.randoms(use_true_random=False))
def test_shuffling_the_sellers_keeps_every_split(market, rng):
    sellers, q_max = market
    shuffled = list(sellers)
    rng.shuffle(shuffled)
    for method in ("exact", "greedy"):
        curves = [fair_price_curve(s, q_max, method=method) for s in (sellers, shuffled)]
        assert [(p.price_cents, curves[0].allocation(p.q)) for p in curves[0].points] == [
            (p.price_cents, curves[1].allocation(p.q)) for p in curves[1].points
        ]


@settings(max_examples=15)
@given(tabular_markets())
def test_exact_is_never_above_greedy_at_any_demand(market):
    sellers, q_max = market
    exact = fair_price_curve(sellers, q_max).points
    greedy = fair_price_curve(sellers, q_max, method="greedy").points
    assert len(exact) == len(greedy)
    for pe, pg in zip(exact, greedy):
        assert pe.price_cents <= pg.price_cents


@settings(max_examples=15)
@given(tabular_markets())
def test_every_exact_split_reprices_to_its_point(market):
    sellers, q_max = market
    curve = fair_price_curve(sellers, q_max)
    for point in curve.points:
        alloc = curve.allocation(point.q)
        assert alloc.total_quantity == point.q
        assert repriced(alloc, sellers) == point.price_cents
        assert alloc.total_cost_cents == point.q * point.price_cents


@settings(max_examples=15)
@given(tabular_markets(), st.data())
def test_raising_one_sellers_stock_never_raises_an_exact_price_nor_shortens_the_curve(
    market, data
):
    sellers, q_max = market
    i = data.draw(st.integers(0, len(sellers) - 1))
    stock = sellers[i].availability
    if stock is not None:  # more units, or no limit at all
        stock = data.draw(st.one_of(st.none(), st.integers(stock + 1, stock + 40)))
    raised = [*sellers[:i], replace(sellers[i], availability=stock), *sellers[i + 1:]]
    before = fair_price_curve(sellers, q_max).points
    after = fair_price_curve(raised, q_max).points
    assert len(after) >= len(before)
    for pb, pa in zip(before, after):
        assert pa.price_cents <= pb.price_cents


@settings(max_examples=15)
@given(tabular_markets(), st.integers(2, 1000))
def test_scaling_every_price_scales_every_exact_cost_and_keeps_every_split(market, k):
    sellers, q_max = market
    scaled = [
        replace(s, curve=TabularCurve(tuple((t, k * p) for t, p in s.curve.bands)))
        for s in sellers
    ]
    base, big = fair_price_curve(sellers, q_max), fair_price_curve(scaled, q_max)
    assert len(big.points) == len(base.points)
    for pb, pk in zip(base.points, big.points):
        assert pk.price_cents * pk.q == k * pb.price_cents * pb.q
        assert [(e.seller_id, e.quantity) for e in big.allocation(pk.q).entries] == [
            (e.seller_id, e.quantity) for e in base.allocation(pb.q).entries
        ]
    assert big.summaries() == base.summaries()


@settings(max_examples=15)
@given(tabular_markets(), st.text(alphabet="abXY09_-", min_size=1, max_size=5))
def test_prefixing_every_seller_id_changes_only_the_ids_in_the_rows(market, prefix):
    # a common prefix keeps the id order, so every tie-break and split stays
    sellers, q_max = market
    renamed = [replace(s, id=prefix + s.id) for s in sellers]

    def prefixed(summary):
        return "+".join(prefix + fill for fill in summary.split("+"))

    for method in ("exact", "greedy"):
        base, named = (fair_price_curve(s, q_max, method=method) for s in (sellers, renamed))
        header, rows = fair_curve_rows(base)
        assert fair_curve_rows(named) == (header, [[q, z, prefixed(t)] for q, z, t in rows])
        for point in base.points:
            header, rows = allocation_rows(base.allocation(point.q))
            assert allocation_rows(named.allocation(point.q)) == (
                header, [[q, prefix + sid, *rest] for q, sid, *rest in rows]
            )


@settings(max_examples=15)
@given(tabular_markets())
def test_every_point_is_its_cost_over_q_and_its_split_costs_that(market):
    # as drawn, the exact method runs the DP; with no stock limit, both
    # methods read the envelope
    sellers, q_max = market
    unlimited = [replace(s, availability=None) for s in sellers]
    for market_sellers in (sellers, unlimited):
        for method in ("exact", "greedy"):
            curve = fair_price_curve(market_sellers, q_max, method=method)
            for point in curve.points:
                assert point.price_cents == Fraction(point.cost_cents, point.q)
                assert curve.allocation(point.q).total_cost_cents == point.cost_cents


@settings(max_examples=15)
@given(tabular_markets(), st.data())
def test_adding_sellers_without_stock_changes_nothing(market, data):
    # a seller without stock supplies no demand, wherever its id sorts; with
    # every stock limit lifted, the sold-out sellers sit beside an envelope
    sellers, q_max = market
    slots = data.draw(st.lists(st.integers(-1, 40), min_size=1, max_size=8, unique=True))
    empty = [replace(data.draw(tabular_sellers(f"S{i:02d}z")), availability=0) for i in slots]

    def outcome(market_sellers, method):
        try:
            curve = fair_price_curve(market_sellers, q_max, method=method)
        except ValueError as exc:
            return str(exc)
        splits = [curve.allocation(point.q) for point in curve.points]
        return curve.costs, curve.q_feasible_max, curve.summaries(), splits

    for market_sellers in (sellers, [replace(s, availability=None) for s in sellers]):
        for method in ("exact", "greedy"):
            assert outcome([*market_sellers, *empty], method) == outcome(market_sellers, method)


def summaries_are_the_allocation_summaries(sellers, q_max):
    """Each method's `summaries()`, read first on a fresh curve, equals its allocations' own."""
    for method in ("exact", "greedy"):
        curve = fair_price_curve(sellers, q_max, method=method)
        texts = curve.summaries()
        assert texts == [curve.allocation(point.q).summary() for point in curve.points]


@pytest.mark.parametrize("unlimited", [False, True])
def test_summaries_of_the_golden_market(unlimited):
    # as written, the exact curve runs the DP; with no stock limit, both
    # methods read the envelope
    sellers = read_sellers_csv(str(GOLDEN_CURVES))
    if unlimited:
        sellers = [replace(s, availability=None) for s in sellers]
    for q_max in (1, 25, 40):
        summaries_are_the_allocation_summaries(sellers, q_max)


@given(small_markets(unlimited=True))
def test_summaries_of_small_markets(market):
    summaries_are_the_allocation_summaries(*market)


@pytest.mark.parametrize("unlimited", [False, True])
def test_summaries_of_a_40_seller_tabular_market(unlimited):
    rng = random.Random(40)
    sellers = []
    for i in range(40):
        cuts = sorted(rng.sample(range(2, 300), 3))
        prices = sorted(rng.sample(range(1, 5000), 4), reverse=True)
        stock = None if unlimited or rng.random() < 0.2 else rng.randint(0, 40)
        sellers.append(Seller(f"S{i:02d}", TabularCurve(tuple(zip([1, *cuts], prices))), stock))
    summaries_are_the_allocation_summaries(sellers, 300)
