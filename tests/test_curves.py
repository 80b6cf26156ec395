"""Tests for seller price curves and the multi-seller lower envelope."""

import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fair_engine import curves as curves_mod
from fair_engine.curves import (
    LinearPlateauCurve,
    TabularCurve,
    linear_curve,
    lower_envelope,
    price_tables,
    tabular_curve,
)
from fair_engine.synth import PopulationSpec, generate_sellers

# Volume-discount bands for a stack of printer paper: 4.69 up to 9 units,
# 4.19 up to 29, 3.69 up to 59, then 3.09.
PAPER_STACK_BANDS = [(1, "4.69"), (10, "4.19"), (30, "3.69"), (60, "3.09")]


class TestLinearPlateau:
    def test_single_product_price(self):
        curve = linear_curve(100, 2, 60)
        assert curve.price_at(1) == 10000  # z(1) is the headline price

    def test_slope_evaluation(self):
        curve = linear_curve(100, 2, 60)
        assert curve.price_at(11) == 8000  # 100 - 2*10 = 80

    def test_saturation_clamp(self):
        curve = linear_curve(100, 2, 60)
        assert curve.price_at(30) == 6000  # 100 - 58 < 60, clamps

    def test_exact_plateau_onset(self):
        curve = linear_curve(100, 2, 60)
        assert curve.price_at(21) == 6000  # 100 - 40 = 60 exactly

    def test_small_example(self):
        assert linear_curve(10, 1, 8).price_at(2) == 900

    def test_zero_rate_is_flat(self):
        curve = linear_curve(50, 0, 50)
        assert curve.price_at(1) == curve.price_at(1000) == 5000

    @pytest.mark.parametrize(
        "p1,rate,sat",
        [
            (50, 1, 60),  # saturation above p1
            (-5, 1, 1),  # non-positive p1
            (50, 1, 0),  # non-positive saturation
            (50, -1, 40),  # negative rate
        ],
    )
    def test_rejects_invalid_parameters(self, p1, rate, sat):
        with pytest.raises(ValueError):
            linear_curve(p1, rate, sat)

    @pytest.mark.parametrize("q", [0, -3])
    def test_rejects_non_positive_quantity(self, q):
        with pytest.raises(ValueError):
            linear_curve(100, 2, 60).price_at(q)

    def test_fractional_rate_rounds_to_cent_grid(self):
        # rate 0.333 CU/unit: at q=4 the exact value is 99.001 -> 9900 cents
        curve = linear_curve(100, "0.333", 60)
        assert curve.price_at(4) == 9900
        assert curve.price_at(2) == 9967  # 99.667

    def test_matches_formula_exactly_on_cent_grid(self):
        # when all parameters sit on the cent grid the evaluation is the
        # defining formula with no rounding at all
        rng = random.Random(101)
        for _ in range(300):
            sat = rng.randint(1, 5000)
            p1 = rng.randint(sat, 20000)
            rate = Fraction(rng.randint(0, 500), 100)
            curve = LinearPlateauCurve(p1_cents=p1, rate=rate, sat_cents=sat)
            for q in (1, 2, 7, 40, 250):
                expected = max(Fraction(p1) - rate * 100 * (q - 1), Fraction(sat))
                assert expected.denominator == 1
                assert curve.price_at(q) == expected


class TestTabular:
    def test_paper_stack_bands(self):
        curve = tabular_curve(PAPER_STACK_BANDS)
        assert curve.price_at(5) == 469
        assert curve.price_at(10) == 419
        assert curve.price_at(29) == 419
        assert curve.price_at(60) == 309

    def test_band_boundaries(self):
        curve = tabular_curve(PAPER_STACK_BANDS)
        expected = {1: 469, 9: 469, 10: 419, 30: 369, 59: 369, 1000: 309}
        for q, price in expected.items():
            assert curve.price_at(q) == price

    def test_rejects_empty_bands(self):
        with pytest.raises(ValueError):
            tabular_curve([])

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ValueError):
            tabular_curve([(1, "5.00"), (10, "4.00"), (10, "3.00")])

    def test_rejects_non_decreasing_prices(self):
        with pytest.raises(ValueError):
            tabular_curve([(1, "5.00"), (10, "5.00")])

    def test_rejects_first_threshold_not_one(self):
        with pytest.raises(ValueError):
            tabular_curve([(2, "5.00")])

    def test_rejects_non_positive_price(self):
        with pytest.raises(ValueError):
            tabular_curve([(1, "1.00"), (5, "0.00")])


def _random_curve(rng):
    if rng.random() < 0.5:
        sat = rng.randint(1, 8000)
        p1 = rng.randint(sat, 20000)
        rate = Fraction(rng.randint(0, 40000), 10000)
        return LinearPlateauCurve(p1_cents=p1, rate=rate, sat_cents=sat)
    n_bands = rng.randint(1, 6)
    thresholds = sorted(rng.sample(range(2, 120), n_bands - 1)) if n_bands > 1 else []
    thresholds = [1] + thresholds
    prices = sorted(rng.sample(range(1, 20000), n_bands), reverse=True)
    return TabularCurve(bands=tuple(zip(thresholds, prices)))


def test_prices_monotone_non_increasing():
    rng = random.Random(7)
    for _ in range(100):
        curve = _random_curve(rng)
        prices = [curve.price_at(q) for q in range(1, 301)]
        assert all(b <= a for a, b in zip(prices, prices[1:]))


def test_prices_always_positive():
    rng = random.Random(8)
    for _ in range(100):
        curve = _random_curve(rng)
        assert min(curve.price_at(q) for q in range(1, 301)) > 0


def test_price_table_equals_price_at():
    rng = random.Random(9)
    curves = [_random_curve(rng) for _ in range(100)]
    curves += [
        LinearPlateauCurve(p1_cents=500, rate=Fraction(1, 10**21), sat_cents=1),
        LinearPlateauCurve(p1_cents=10**17, rate=Fraction(7 * 10**14, 3), sat_cents=10**15),
        LinearPlateauCurve(p1_cents=900, rate=Fraction(0), sat_cents=400),
        LinearPlateauCurve(p1_cents=400, rate=Fraction(0), sat_cents=400),
    ]
    curves += [
        LinearPlateauCurve(p1_cents=2**70, rate=Fraction(3, 7), sat_cents=2**69),
        TabularCurve(bands=((1, 2**63), (3, 2**63 - 1))),  # the first price past int64
    ]
    # linear and tabular curves in one call, each table read-only and its own
    for x_max in (0, 1, 7, 300):
        tables = price_tables(curves, x_max)
        assert len({id(table) for table in tables}) == len(curves)
        for curve, table in zip(curves, tables):
            assert not table.flags.writeable and table.base is None  # its own copy
            if x_max:  # a table of x = 0 alone holds no price
                assert table.dtype == (object if curve.price_at(1) >= 1 << 63 else np.int64)
            expected = [0] + [curve.price_at(q) for q in range(1, x_max + 1)]
            assert table[: x_max + 1].tolist() == expected


def test_price_tables_take_one_length_per_curve_and_fill_a_curve_listed_twice_once():
    rng = random.Random(10)
    curves = [_random_curve(rng) for _ in range(40)]
    lengths = [rng.randint(0, 90) for _ in curves]
    for curve, x_max, table in zip(curves, lengths, price_tables(curves, lengths)):
        assert table[: x_max + 1].tolist() == [0] + [curve.price_at(q) for q in range(1, x_max + 1)]
    curve = tabular_curve(PAPER_STACK_BANDS)
    first, second = price_tables([curve, curve], [30, 70])
    assert first is second and len(first) == 71


def test_small_fill_blocks_give_the_same_tables_and_envelope(monkeypatch):
    # blocks of 7 cells: a grid of one curve at a time, an envelope column by column
    rng = random.Random(17)
    sellers = [(f"S{i:02d}", _random_curve(rng)) for i in range(12)]
    expected = lower_envelope(sellers, 90)
    fresh = [(sid, replace(curve)) for sid, curve in sellers]  # copies with no table yet
    monkeypatch.setattr(curves_mod, "_FILL_BLOCK_CELLS", 7)
    for (_, curve), table in zip(fresh, price_tables([c for _, c in fresh], 30)):
        assert table.tolist() == [0] + [curve.price_at(q) for q in range(1, 31)]
    assert lower_envelope(fresh, 90) == expected


def test_a_fresh_linear_population_is_priced_without_price_at(monkeypatch):
    population = generate_sellers(PopulationSpec(n_sellers=60, seed=27))
    price_at = LinearPlateauCurve.price_at

    def refused(self, q):
        raise AssertionError("a linear table was filled from price_at")

    monkeypatch.setattr(LinearPlateauCurve, "price_at", refused)
    tables = price_tables([s.curve for s in population], 200)
    monkeypatch.setattr(LinearPlateauCurve, "price_at", price_at)
    for seller, table in zip(population, tables):
        assert table.tolist() == [0] + [seller.curve.price_at(q) for q in range(1, 201)]


class TestLowerEnvelope:
    def test_single_seller_is_identity(self):
        curve = linear_curve(100, 5, 70)
        env = lower_envelope([("A", curve)], 50)
        assert [p.price_cents for p in env.points] == [
            curve.price_at(q) for q in range(1, 51)
        ]
        assert len(env.segments) == 1
        assert env.segments[0].q_from == 1 and env.segments[0].q_to == 50

    def test_two_seller_crossover(self):
        # A wins while 100-5(q-1) < 110-8(q-1); B takes over at q=5
        env = lower_envelope(
            [("A", linear_curve(100, 5, 70)), ("B", linear_curve(110, 8, 60))], 10
        )
        assert [(s.q_from, s.q_to, s.seller_id) for s in env.segments] == [
            (1, 4, "A"),
            (5, 10, "B"),
        ]
        assert env.points[3].price_cents == 8500  # A at 85 beats B at 86
        assert env.points[4].price_cents == 7800  # B at 78 beats A at 80

    def test_matches_per_q_minimum_brute_force(self):
        rng = random.Random(11)
        for _ in range(20):
            sellers = [(f"S{i:02d}", _random_curve(rng)) for i in range(rng.randint(1, 8))]
            env = lower_envelope(sellers, 120)
            for q in range(1, 121):
                assert env.points[q - 1].price_cents == min(c.price_at(q) for _, c in sellers)

    def test_exhaustive_at_scale(self):
        # one large sweep: 50 sellers, every q up to 1000
        rng = random.Random(15)
        sellers = [(f"S{i:02d}", _random_curve(rng)) for i in range(50)]
        env = lower_envelope(sellers, 1000)
        for q in range(1, 1001):
            assert env.points[q - 1].price_cents == min(c.price_at(q) for _, c in sellers)

    def test_envelope_is_monotone_non_increasing(self):
        rng = random.Random(12)
        sellers = [(f"S{i:02d}", _random_curve(rng)) for i in range(20)]
        env = lower_envelope(sellers, 400)
        prices = [p.price_cents for p in env.points]
        assert all(b <= a for a, b in zip(prices, prices[1:]))

    def test_adding_a_seller_never_raises_the_envelope(self):
        rng = random.Random(13)
        for _ in range(20):
            sellers = [(f"S{i:02d}", _random_curve(rng)) for i in range(rng.randint(1, 6))]
            extra = sellers + [("S99", _random_curve(rng))]
            base = lower_envelope(sellers, 80)
            grown = lower_envelope(extra, 80)
            for q in range(1, 81):
                assert grown.points[q - 1].price_cents <= base.points[q - 1].price_cents

    def test_ties_go_to_lowest_seller_id(self):
        curve = linear_curve(50, 0, 50)
        env = lower_envelope([("B", curve), ("A", curve)], 5)
        assert all(p.seller_id == "A" for p in env.points)

    def test_each_point_is_the_first_cheapest_seller_in_id_order(self):
        # sellers share curves under shuffled ids, so prices tie often
        rng = random.Random(16)
        for _ in range(20):
            pool = [_random_curve(rng) for _ in range(rng.randint(1, 4))]
            sellers = [(f"S{i:02d}", rng.choice(pool)) for i in range(rng.randint(1, 8))]
            rng.shuffle(sellers)
            env = lower_envelope(sellers, 60)
            for point in env.points:
                best = min(sorted(sellers), key=lambda pair: pair[1].price_at(point.q))
                assert point.seller_id == best[0]
                assert point.price_cents == best[1].price_at(point.q)

    def test_prices_beyond_int64_stay_exact(self):
        # B falls three times as fast from twice the price: the two tie at
        # q = 51, which goes to A, and B is cheaper from q = 52
        big_a = LinearPlateauCurve(10**19, Fraction(10**15), 10**18)
        big_b = LinearPlateauCurve(2 * 10**19, Fraction(3 * 10**15), 5 * 10**17)
        env = lower_envelope([("B", big_b), ("A", big_a)], 100)
        assert [(s.q_from, s.q_to, s.seller_id) for s in env.segments] == [
            (1, 51, "A"),
            (52, 100, "B"),
        ]
        for point in env.points:
            assert type(point.price_cents) is int
            assert point.price_cents == min(big_a.price_at(point.q), big_b.price_at(point.q))

    def test_segments_partition_the_range(self):
        rng = random.Random(14)
        sellers = [(f"S{i:02d}", _random_curve(rng)) for i in range(10)]
        env = lower_envelope(sellers, 150)
        covered = []
        for seg in env.segments:
            covered.extend(range(seg.q_from, seg.q_to + 1))
        assert covered == list(range(1, 151))
        for a, b in zip(env.segments, env.segments[1:]):
            assert a.seller_id != b.seller_id

    def test_rejects_empty_seller_list(self):
        with pytest.raises(ValueError):
            lower_envelope([], 10)

    def test_rejects_duplicate_ids(self):
        curve = linear_curve(10, 1, 5)
        with pytest.raises(ValueError):
            lower_envelope([("A", curve), ("A", curve)], 10)


MEMO_CURVES = (
    lambda: LinearPlateauCurve(p1_cents=9000, rate=Fraction(37, 100), sat_cents=5000),
    lambda: tabular_curve(PAPER_STACK_BANDS),
)


@pytest.mark.parametrize("make", MEMO_CURVES, ids=("linear", "tabular"))
@pytest.mark.parametrize("order", [(5, 200, 50), (200, 50, 5), (50, 5, 200)])
def test_price_table_reads_in_any_order_equal_fresh_tables(make, order):
    curve = make()
    for x_max in order * 2:  # the second pass reads every length after the longest
        table = price_tables([curve], x_max)[0][: x_max + 1]
        assert table.tolist() == [0] + [curve.price_at(q) for q in range(1, x_max + 1)]


@pytest.mark.parametrize("make", MEMO_CURVES, ids=("linear", "tabular"))
def test_price_table_reads_on_several_threads_agree(make):
    # the first reads of a fresh curve race to fill its memo, so the race is
    # run for several rounds, each on a fresh curve
    lengths = (5, 50, 200)
    reference = make()
    fresh = {x: [0] + [reference.price_at(q) for q in range(1, x + 1)] for x in lengths}
    orders = [(5, 200, 50), (200, 50, 5), (50, 5, 200), (200, 5, 50)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            curve = make()
            start = threading.Barrier(len(orders))
            seen, errors = [], []

            def read(order):
                try:
                    start.wait(timeout=10)
                    for _ in range(5):
                        seen.extend((x, price_tables([curve], x)[0][: x + 1].tolist())
                                    for x in order)
                except Exception as exc:  # reported below, once every thread has stopped
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(seen) == len(orders) * 5 * len(lengths)
            assert all(table == fresh[x] for x, table in seen)
    finally:
        sys.setswitchinterval(interval)
