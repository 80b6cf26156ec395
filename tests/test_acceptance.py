"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
and the measured runtimes.
"""

import random
import time
from fractions import Fraction

import numpy as np
from fixtures import random_small_instances, raw_parameter_draws
from oracles import brute_force_min_cost, first_minimum

from fair_engine.allocation import (
    Allocation,
    AllocationEntry,
    FairPriceCurve,
    FairPricePoint,
    Seller,
    fair_price_curve,
    greedy_allocation,
    optimal_allocation,
    optimal_demand,
)
from fair_engine.cli import main
from fair_engine.curves import lower_envelope, tabular_curve
from fair_engine.fair import BuyerOrder, FairConfig, FairStatus, SellerLedger, open_fair
from fair_engine.geo import Position, shipping_plan
from fair_engine.synth import PopulationSpec, generate_sellers

ORACLE_SEED = 20_250_810  # shared by criteria 2 and 7
ORACLE_COUNT = 1000


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_step_curve_regression():
    """Tabular step curve returns its four band prices bit-exactly, <1 ms."""
    curve = tabular_curve([(1, "4.69"), (10, "4.19"), (30, "3.69"), (60, "3.09")])
    expected = {}
    for q in range(1, 10):
        expected[q] = 469
    for q in range(10, 30):
        expected[q] = 419
    for q in range(30, 60):
        expected[q] = 369
    for q in range(60, 200):
        expected[q] = 309

    start = time.perf_counter()
    for q, price in expected.items():
        assert curve.price_at(q) == price
    elapsed = time.perf_counter() - start
    per_eval = elapsed / len(expected)
    assert per_eval < 1e-3
    report(1, f"4.69/4.19/3.69/3.09 bands bit-exact, {per_eval*1e6:.1f} us per eval")


def test_criterion_02_exact_solver_matches_brute_force():
    """1000 seeded small instances: DP total cost == enumeration, <10 s."""
    instances = random_small_instances(seed=ORACLE_SEED, count=ORACLE_COUNT)
    start = time.perf_counter()
    for inst in instances:
        alloc = optimal_allocation(inst.sellers, inst.demand)
        assert alloc.total_cost_cents == brute_force_min_cost(inst.sellers, inst.demand)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{ORACLE_COUNT} instances equal brute force exactly in {elapsed:.2f}s")


def test_criterion_03_unlimited_fair_curve_equals_envelope():
    """20 drawn sellers, unlimited stock: fair curve == envelope for q<=200, <1 s."""
    sellers = generate_sellers(PopulationSpec(n_sellers=20, seed=2024))
    start = time.perf_counter()
    curve = fair_price_curve(sellers, 200)
    envelope = lower_envelope([(s.id, s.curve) for s in sellers], 200)
    for point in curve.points:
        assert point.price_cents == envelope.price_at(point.q)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(curve.points) == 200
    report(3, f"200 demand points equal the envelope exactly in {elapsed:.2f}s")


def test_criterion_04_finite_stock_sweep_properties():
    """20 seeded populations x stock in {5,10,20,46,100}: monotone in stock,
    some non-monotone curve exists, the optimum region touches [1, Q]; <60 s."""
    stocks = [5, 10, 20, 46, 100]
    start = time.perf_counter()
    any_nonmonotone = False
    for seed in range(20):
        spec = PopulationSpec(n_sellers=20, seed=3000 + seed)
        curves = {}
        for stock in stocks:
            sellers = generate_sellers(
                PopulationSpec(n_sellers=20, seed=3000 + seed, availability=stock)
            )
            curves[stock] = fair_price_curve(sellers, 200)

        # (a) more stock never raises the price at any common demand
        for smaller, larger in zip(stocks, stocks[1:]):
            for ps, pl in zip(curves[smaller].points, curves[larger].points):
                assert pl.price_cents <= ps.price_cents

        for stock in stocks:
            curve = curves[stock]
            if not curve.is_monotone_non_increasing():
                any_nonmonotone = True
            # (c) the region of minimum price intersects [1, stock]
            best = optimal_demand(curve)
            argmin = [p.q for p in curve.points if p.price_cents == best.z_star_cents]
            assert any(q <= stock for q in argmin)
    elapsed = time.perf_counter() - start
    # (b) at least one finite-stock curve is non-monotone
    assert any_nonmonotone
    assert elapsed < 60.0
    report(4, f"100 sweeps: stock-monotone, non-monotone cases found, "
              f"optimum region in [1, Q]; {elapsed:.1f}s")


def test_criterion_05_lowest_demand_tie_break():
    """500 randomized plateau curves: the smallest minimizing demand wins."""
    rng = random.Random(55_055)
    for _ in range(500):
        prices = []
        level = rng.randint(500, 2500)
        while len(prices) < 40:
            prices.extend([level] * rng.randint(1, 6))
            level = max(1, level + rng.randint(-400, 150))
        prices = prices[:40]
        points, allocs = [], []
        for q, price in enumerate(prices, start=1):
            entry = AllocationEntry(seller_id="X", quantity=q, unit_price_cents=price)
            allocs.append(
                Allocation(
                    entries=(entry,),
                    total_quantity=q,
                    total_cost_cents=q * price,
                    fair_unit_price_cents=Fraction(price),
                )
            )
            points.append(FairPricePoint(q=q, cost_cents=q * price, price_cents=Fraction(price)))
        curve = FairPriceCurve(
            points=tuple(points), q_feasible_max=40, _split=lambda q, cost: allocs[q - 1]
        )
        best = optimal_demand(curve)
        expected_q, expected_price = first_minimum(prices)
        assert best.q_star == expected_q
        assert best.z_star_cents == expected_price
    report(5, "500/500 plateau curves return the smallest minimizing demand")


def test_criterion_06_settlement_revenue_safety():
    """500 randomized settled fairs: buyer total >= seller total, revenue
    equals the difference, all in exact minor-unit arithmetic."""
    rng = random.Random(66_066)
    checked = 0
    while checked < 500:
        margin = Fraction(rng.randint(0, 40), 100)
        discount = Fraction(rng.randint(0, 20), 100)
        sellers = [
            Seller(
                f"S{j}",
                tabular_curve([(1, rng.randint(5, 90))]),
                availability=rng.randint(30, 60),  # covers the 6x5 peak demand
            )
            for j in range(rng.randint(1, 4))
        ]
        config = FairConfig(max_duration=1000.0, margin=margin, fidelity_discount=discount)
        ledger = SellerLedger(sellers)
        fair = open_fair("bulk", sellers, config, ledger=ledger)
        for i in range(rng.randint(1, 6)):
            fair.join(
                BuyerOrder(
                    buyer_id=f"b{i}",
                    quantity=rng.randint(1, 5),
                    max_wait=5000.0,
                    join_time=float(i + 1),
                    fidelity=Fraction(rng.randint(0, 100), 100),
                ),
                ledger,
            )
        fair.check_end(1000.0, ledger)
        assert fair.status is FairStatus.ENDED_BY_TIME
        settlement = fair.settle(ledger)
        assert settlement.buyers_total_cents >= settlement.sellers_total_cents
        assert (
            settlement.buyers_total_cents - settlement.sellers_total_cents
            == settlement.manager_revenue_cents
        )
        assert settlement.buyers_total_cents == (1 + margin) * settlement.sellers_total_cents
        checked += 1
    report(6, "500/500 settlements: buyers_total >= sellers_total, revenue exact")


def test_criterion_07_greedy_vs_exact_audit():
    """Greedy gap over the criterion-2 oracle set: never negative, with a
    count of strictly suboptimal instances."""
    instances = random_small_instances(seed=ORACLE_SEED, count=ORACLE_COUNT)
    suboptimal, worst = 0, Fraction(0)
    for inst in instances:
        exact = optimal_allocation(inst.sellers, inst.demand).fair_unit_price_cents
        greedy = greedy_allocation(inst.sellers, inst.demand).fair_unit_price_cents
        gap = (greedy - exact) / exact
        assert gap >= 0, f"greedy beat the exact solver on {inst}: gap {gap}"
        suboptimal += gap > 0
        worst = max(worst, gap)
    report(
        7,
        f"greedy suboptimal on {suboptimal}/{len(instances)} instances, "
        f"max relative gap {float(worst):.4f}",
    )


def test_criterion_08_population_statistics():
    """10,000 seeded draws: mean p1 within 100 +- 1, median rate within
    0.135 +- 0.02, <1 s."""
    start = time.perf_counter()
    p1s, rates, _ = raw_parameter_draws(8_008, 10_000)
    mean_p1 = float(np.mean(p1s))
    median_rate = float(np.median(rates))
    elapsed = time.perf_counter() - start
    assert abs(mean_p1 - 100.0) < 1.0
    assert abs(median_rate - 0.135) < 0.02
    assert elapsed < 1.0
    report(8, f"mean p1 {mean_p1:.3f}, median rate {median_rate:.4f} in {elapsed:.2f}s")


def test_criterion_09_experiment_determinism(tmp_path):
    """The experiment command writes byte-identical files on repeat runs."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n_sellers = 20\nseed = 99\navailabilities = 10, 46, unlimited\n"
        "q_max = 120\nmethod = exact\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["experiment", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert len(names) == 4  # one curve file per availability + summary
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(9, "repeat experiment runs byte-identical (3 curve files + summary)")


def test_criterion_10_pickup_merge_never_raises_cost():
    """200 randomized shipments: merging two same-supplier destinations into
    one pickup never increases the plan total."""
    rng = random.Random(101_010)
    checked = 0
    while checked < 200:
        seller = Seller(
            "S1",
            tabular_curve([(1, rng.randint(5, 50))]),
            availability=None,
            position=Position(rng.uniform(-10, 10), rng.uniform(-10, 10)),
        )
        n_buyers = rng.randint(2, 7)
        orders = [(f"b{i}", rng.randint(1, 4)) for i in range(n_buyers)]
        total = sum(q for _, q in orders)
        allocation = optimal_allocation([seller], total)
        destinations = {
            bid: Position(rng.uniform(-30, 30), rng.uniform(-30, 30))
            for bid, _ in orders
        }
        before = shipping_plan(allocation, [seller], orders, destinations)
        i, j = rng.sample(range(n_buyers), 2)
        pickup = destinations[orders[i][0]]
        after = shipping_plan(
            allocation,
            [seller],
            orders,
            {**destinations, **{orders[i][0]: pickup, orders[j][0]: pickup}},
        )
        assert after.total_cost_cents <= before.total_cost_cents
        checked += 1
    report(10, "200/200 merges kept the shipping total from rising")
