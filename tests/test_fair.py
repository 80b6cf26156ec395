"""Tests for the fair lifecycle: joins, prediction, ending, settlement, ledger."""

import functools
import itertools
import os
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scan_allocation

import fair_engine.allocation as allocation_module
from fair_engine.allocation import (
    InfeasibleDemandError,
    Seller,
    fair_price_curve,
    optimal_allocation,
    optimal_demand,
)
from fair_engine.curves import linear_curve
from fair_engine.fair import (
    BuyerHistory,
    BuyerOrder,
    FairConfig,
    FairStatus,
    LedgerCapacityError,
    LifecycleError,
    PaymentTiming,
    PricePrediction,
    SellerLedger,
    fidelity_score,
    join_earliness,
    open_fair,
)

DAY = 24 * 3600.0


def flat_seller(price_cu, availability=None, seller_id="S1"):
    return Seller(seller_id, linear_curve(price_cu, 0, price_cu), availability=availability)


class SoloFair:
    """A fair on a ledger of its own sellers, which every call that reads stock is given."""

    def __init__(self, sellers, config=None, **kwargs):
        self.ledger = SellerLedger(sellers)
        self.fair = open_fair("paper", sellers, config, ledger=self.ledger, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self.fair, name)
        if name in ("predict", "join", "check_end", "settle"):
            return functools.partial(attr, ledger=self.ledger)
        return attr


def order(buyer_id, q, join_time=1.0, max_wait=30 * DAY, fidelity=0, timing=PaymentTiming.AFTER):
    return BuyerOrder(
        buyer_id=buyer_id,
        quantity=q,
        max_wait=max_wait,
        join_time=join_time,
        payment_timing=timing,
        fidelity=Fraction(fidelity),
    )


class TestOpenFair:
    def test_opens_running_with_empty_book(self):
        fair = SoloFair([flat_seller(10, 5)], FairConfig(max_duration=7 * DAY))
        assert fair.status is FairStatus.RUNNING
        assert fair.demand == 0

    def test_deadline_is_opening_plus_max_duration(self):
        fair = SoloFair(
            [flat_seller(10)], FairConfig(max_duration=7 * DAY), opened_at=100.0
        )
        assert fair.deadline == 100.0 + 7 * DAY

    def test_rejects_a_deadline_that_is_not_finite(self):
        seller = flat_seller(10)
        with pytest.raises(ValueError, match="product paper: deadline inf .* is not finite"):
            open_fair(
                "paper", [seller], FairConfig(max_duration=1e308), opened_at=1e308,
                ledger=SellerLedger([seller]),
            )

    def test_rejects_empty_seller_set(self):
        with pytest.raises(ValueError):
            SoloFair([])

    def test_rejects_fully_committed_stock(self):
        seller = flat_seller(10, availability=3)
        ledger = SellerLedger([seller])
        fair = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 3), ledger=ledger)
        fair.check_end(fair.deadline, ledger=ledger)
        fair.settle(ledger=ledger)
        with pytest.raises(ValueError):
            open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)

    def test_opens_with_one_unit_left(self):
        seller = flat_seller(10, availability=3)
        ledger = SellerLedger([seller])
        first = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        first.join(order("b1", 2), ledger=ledger)
        first.check_end(first.deadline, ledger=ledger)
        first.settle(ledger=ledger)
        assert ledger.available(seller.id) == 1
        second = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        assert second.status is FairStatus.RUNNING
        second.join(order("b2", 1), ledger=ledger)
        assert second.demand == 1


class TestLedgerIsRequired:
    @pytest.mark.parametrize(
        "call",
        [
            lambda fair: open_fair("paper", [flat_seller(10)]),
            lambda fair: fair.predict(),
            lambda fair: fair.join(order("b1", 1)),
            lambda fair: fair.check_end(0.0),
            lambda fair: fair.settle(),
        ],
        ids=["open_fair", "predict", "join", "check_end", "settle"],
    )
    def test_a_fair_call_without_a_ledger_is_a_type_error(self, call):
        seller = flat_seller(10)
        fair = open_fair("paper", [seller], ledger=SellerLedger([seller]))
        with pytest.raises(TypeError, match="ledger"):
            call(fair)

    def test_a_ledger_is_built_with_its_sellers(self):
        with pytest.raises(TypeError):
            SellerLedger()
        with pytest.raises(ValueError, match="seller S1 already registered with different stock"):
            SellerLedger([flat_seller(10, 5), flat_seller(10, 6)])
        assert SellerLedger([flat_seller(10, 5), flat_seller(10, 5)]).available("S1") == 5

    def test_reads_of_an_unknown_seller_are_refused(self):
        known, stranger = flat_seller(10, 5), flat_seller(10, 5, seller_id="X")
        ledger = SellerLedger([known])
        with pytest.raises(ValueError, match="seller X not in ledger"):
            ledger.available("X")
        with pytest.raises(ValueError, match="seller X not in ledger"):
            ledger.effective_sellers([known, stranger])
        with pytest.raises(ValueError, match="seller X not in ledger"):
            open_fair("paper", [known, stranger], ledger=ledger)
        assert ledger.available("S1") == 5  # nothing was registered on the way

    def test_committed_of_an_unknown_seller_is_refused(self):
        ledger = SellerLedger([flat_seller(10, 5)])
        with pytest.raises(ValueError, match="seller X not in ledger"):
            ledger.committed("X")
        with pytest.raises(ValueError, match="seller X not in ledger"):
            SellerLedger([]).committed("X")
        assert ledger.committed("S1") == 0

    def test_an_unnamed_fair_is_named_after_its_product(self):
        seller = flat_seller(10)
        ledger = SellerLedger([seller])
        ids = [open_fair("paper", [seller], ledger=ledger).fair_id for _ in range(2)]
        assert ids == ["fair-paper", "fair-paper"]
        assert open_fair("paper", [seller], fair_id="f1", ledger=ledger).fair_id == "f1"


class TestJoin:
    def test_first_join_sets_demand(self):
        fair = SoloFair([flat_seller(10)])
        fair.join(order("b1", 2))
        assert fair.demand == 2

    def test_short_wait_pulls_deadline_earlier(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=7 * DAY))
        fair.join(order("b1", 1, join_time=DAY, max_wait=2 * DAY))
        assert fair.deadline == 3 * DAY  # join_time + max_wait

    def test_long_wait_leaves_deadline_alone(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=2 * DAY))
        fair.join(order("b1", 1, join_time=DAY, max_wait=30 * DAY))
        assert fair.deadline == 2 * DAY

    def test_join_after_deadline_is_rejected(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=DAY))
        with pytest.raises(LifecycleError):
            fair.join(order("b1", 1, join_time=2 * DAY))

    def test_join_on_ended_fair_is_rejected(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=DAY))
        fair.check_end(DAY)
        with pytest.raises(LifecycleError):
            fair.join(order("b1", 1, join_time=0.5 * DAY))

    def test_join_beyond_supply_names_shortfall(self):
        fair = SoloFair([flat_seller(10, availability=3)])
        fair.join(order("b1", 2))
        with pytest.raises(InfeasibleDemandError) as err:
            fair.join(order("b2", 2, join_time=2.0))
        assert err.value.shortfall == 1
        assert fair.demand == 2  # rejected join leaves the book unchanged

    def test_join_beyond_a_large_stock_is_refused_before_any_curve(self, monkeypatch):
        # a curve out to 40,001 units of one 40,000-unit seller is 1.6e9 DP cells
        fair = SoloFair([flat_seller(10, availability=40_000)])
        fair.join(order("b1", 1))
        cached = fair._cached_outlook

        def no_curve(sellers, q_max):
            raise AssertionError(f"curve to {q_max} built for a refused join")

        monkeypatch.setattr("fair_engine.fair.fair_price_curve", no_curve)
        with pytest.raises(InfeasibleDemandError) as err:
            fair.join(order("b2", 40_000, join_time=2.0))
        assert (err.value.demand, err.value.shortfall) == (40_001, 1)
        assert fair._cached_outlook is cached
        assert fair.demand == 1

    def test_join_refused_by_the_dp_budget_leaves_the_fair_unchanged(self):
        # one unlimited seller and q = 10^8: the exact solver refuses the sweep
        fair = SoloFair([flat_seller(10)])
        deadline = fair.deadline
        with pytest.raises(ValueError, match="budget"):
            fair.join(order("b1", 100_000_000, max_wait=500.0))
        assert (fair.orders, fair.demand, fair.deadline) == ([], 0, deadline)
        fair.join(order("b1", 2, max_wait=500.0))
        assert (fair.demand, fair.deadline) == (2, 501.0)

    def test_duplicate_buyer_is_rejected(self):
        fair = SoloFair([flat_seller(10)])
        fair.join(order("b1", 1))
        with pytest.raises(ValueError):
            fair.join(order("b1", 1, join_time=2.0))

    def test_deadline_never_increases(self):
        rng = random.Random(71)
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=30 * DAY))
        deadlines = [fair.deadline]
        t = 0.0
        for i in range(25):
            t += rng.uniform(0.1, DAY)
            if t >= fair.deadline:
                break
            fair.join(order(f"b{i}", 1, join_time=t, max_wait=rng.uniform(0.5, 40) * DAY))
            deadlines.append(fair.deadline)
        assert all(b <= a for a, b in zip(deadlines, deadlines[1:]))


class TestPredict:
    def ab_sellers(self):
        return [
            Seller("A", linear_curve(100, 5, 70)),
            Seller("B", linear_curve(110, 8, 60)),
        ]

    def test_current_price_and_projection(self):
        fair = SoloFair(self.ab_sellers())
        prediction = fair.join(order("b1", 3), what_if=[5])
        assert prediction.current_price_cents == Fraction(9000)  # A at 90
        assert prediction.what_if == ((5, Fraction(7800)),)  # B at 78

    def test_zero_demand_prediction_has_optimum_only(self):
        fair = SoloFair(self.ab_sellers())
        prediction = fair.predict()
        assert prediction.current_price_cents is None
        assert prediction.optimal.q_star >= 1

    def test_unlimited_predictions_monotone_in_demand(self):
        fair = SoloFair(self.ab_sellers())
        prediction = fair.predict(what_if=range(1, 120))
        prices = [z for _, z in prediction.what_if if z is not None]
        assert all(b <= a for a, b in zip(prices, prices[1:]))

    def test_at_optimum_current_equals_z_star(self):
        seller = flat_seller(10, availability=50)
        fair = SoloFair([seller])
        prediction = fair.join(order("b1", 1))
        assert prediction.current_price_cents == prediction.optimal.z_star_cents


def interior_minimum_sellers():
    # A is cheap but only stocks 5; q=5 is the global optimum at 60 CU
    return [
        Seller("A", linear_curve(100, 10, 10), availability=5),
        Seller("B", linear_curve(200, 0, 200)),
    ]


class TestCheckEnd:
    def test_deadline_boundary_is_inclusive(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=DAY))
        assert fair.check_end(DAY) is FairStatus.ENDED_BY_TIME

    def test_below_deadline_and_optimum_keeps_running(self):
        fair = SoloFair(interior_minimum_sellers(), FairConfig(max_duration=DAY))
        fair.join(order("b1", 2))
        assert fair.check_end(0.5 * DAY) is FairStatus.RUNNING

    def test_reaching_the_optimum_ends_the_fair(self):
        fair = SoloFair(interior_minimum_sellers(), FairConfig(max_duration=DAY))
        fair.join(order("b1", 5))
        assert fair.check_end(0.5 * DAY) is FairStatus.ENDED_BY_OPTIMAL_PRICE

    def test_near_miss_keeps_running(self):
        fair = SoloFair(interior_minimum_sellers(), FairConfig(max_duration=DAY))
        fair.join(order("b1", 4))  # 70 CU, not the 60 CU optimum
        assert fair.check_end(0.5 * DAY) is FairStatus.RUNNING

    def test_demand_one_at_an_optimum_of_one_ends_the_fair(self):
        # a flat price ties at every demand, so q* is 1 and one unit reaches it
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=DAY))
        fair.join(order("b1", 1))
        assert fair.predict().optimal.q_star == 1
        assert fair.check_end(0.5 * DAY) is FairStatus.ENDED_BY_OPTIMAL_PRICE

    def test_demand_taking_the_last_unit_at_the_optimum_ends_the_fair(self):
        # prices fall to the last unit, so q* is the whole stock, the curve's end
        fair = SoloFair([Seller("A", linear_curve(100, 10, 10), availability=3)],
                        FairConfig(max_duration=DAY))
        fair.join(order("b1", 3))
        assert fair.check_end(0.5 * DAY) is FairStatus.ENDED_BY_OPTIMAL_PRICE

    def test_never_moves_backward(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=DAY))
        fair.check_end(DAY)
        assert fair.check_end(0.0) is FairStatus.ENDED_BY_TIME


def rebuilt_prediction(fair, ledger, what_if=()):
    """The fair's prediction computed from scratch; None when no stock is left."""
    demand = fair.demand
    horizon = max(fair.config.curve_horizon, demand)
    curve = fair_price_curve(ledger.effective_sellers(fair.sellers), horizon)
    if not curve.points:
        return None
    n = len(curve.points)

    def price(q):
        return curve.price_at(q) if 1 <= q <= n else None

    return PricePrediction(
        demand=demand,
        current_price_cents=price(demand),
        optimal=optimal_demand(curve),
        what_if=tuple((q, price(q)) for q in what_if),
    )


WHAT_IF = tuple(range(1, 9))


class TestOutlookCache:
    def test_join_and_check_end_share_one_curve(self, monkeypatch):
        calls = []
        dp_tables = allocation_module._dp_tables

        def counted(*args, **kwargs):
            calls.append(args)
            return dp_tables(*args, **kwargs)

        monkeypatch.setattr(allocation_module, "_dp_tables", counted)
        sellers = interior_minimum_sellers()
        ledger = SellerLedger(sellers)
        fair = open_fair("paper", sellers, FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 2), ledger=ledger, what_if=WHAT_IF)
        assert fair.check_end(0.5 * DAY, ledger=ledger) is FairStatus.RUNNING
        assert len(calls) == 1
        # unchanged stock: the next join reuses the curve too, and so does the settle
        fair.join(order("b2", 3), ledger=ledger)
        assert fair.check_end(0.5 * DAY, ledger=ledger) is FairStatus.ENDED_BY_OPTIMAL_PRICE
        fair.settle(ledger=ledger)
        assert len(calls) == 1
        assert fair._cached_outlook is None  # a settled fair keeps no curve

    def test_join_event_reads_the_ledger_twice(self, monkeypatch):
        reads = []
        effective_sellers = SellerLedger.effective_sellers

        def counted(self, sellers):
            reads.append(sellers)
            return effective_sellers(self, sellers)

        sellers = interior_minimum_sellers()
        ledger = SellerLedger(sellers)
        fair = open_fair("paper", sellers, FairConfig(max_duration=DAY), ledger=ledger)
        monkeypatch.setattr(SellerLedger, "effective_sellers", counted)
        fair.join(order("b1", 2), ledger=ledger, what_if=WHAT_IF)
        fair.check_end(0.5 * DAY, ledger=ledger)
        assert len(reads) == 2  # the join admits and prices from one read

    def test_settlement_elsewhere_refreshes_the_prediction(self):
        sellers = interior_minimum_sellers()
        ledger = SellerLedger(sellers)
        fair = open_fair("paper", sellers, FairConfig(max_duration=DAY), ledger=ledger)
        before = fair.join(order("b1", 2), ledger=ledger, what_if=WHAT_IF)

        rival = open_fair("paper", sellers, FairConfig(max_duration=DAY), ledger=ledger)
        rival.join(order("r1", 3), ledger=ledger)
        rival.check_end(DAY, ledger=ledger)
        rival.settle(ledger=ledger)  # takes 3 of A's 5 cheap units

        after = fair.predict(what_if=WHAT_IF, ledger=ledger)
        assert after == rebuilt_prediction(fair, ledger, WHAT_IF)
        assert (after.optimal, after.what_if) != (before.optimal, before.what_if)

    @settings(max_examples=80)
    @given(
        stock=st.tuples(
            st.integers(1, 6), st.integers(1, 6), st.one_of(st.none(), st.integers(1, 6))
        ),
        steps=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from(["join", "predict", "check"]),
                st.integers(1, 4),
            ),
            max_size=30,
        ),
    )
    def test_every_prediction_matches_a_fresh_curve(self, stock, steps):
        # Two fair slots on one ledger take joins, predictions and checks in
        # any order; a fair that ends settles at once and its slot reopens.
        # curve_horizon 4 lets demand outgrow the horizon.
        sellers = [
            Seller("A", linear_curve(100, 10, 10), availability=stock[0]),
            Seller("B", linear_curve(120, 5, 60), availability=stock[1]),
            Seller("C", linear_curve(200, 0, 200), availability=stock[2]),
        ]
        ledger = SellerLedger(sellers)
        config = FairConfig(max_duration=DAY, curve_horizon=4)
        fairs = [open_fair("paper", sellers, config, ledger=ledger) for _ in range(2)]
        buyers = itertools.count()
        for slot, action, q in steps:
            fair = fairs[slot]
            if fair is None:
                continue
            if action == "join":
                try:
                    prediction = fair.join(
                        order(f"b{next(buyers)}", q), ledger=ledger, what_if=WHAT_IF
                    )
                except InfeasibleDemandError:
                    continue
                assert prediction == rebuilt_prediction(fair, ledger, WHAT_IF)
            elif action == "predict":
                expected = rebuilt_prediction(fair, ledger, WHAT_IF)
                if expected is None:
                    with pytest.raises(InfeasibleDemandError):
                        fair.predict(what_if=WHAT_IF, ledger=ledger)
                else:
                    assert fair.predict(what_if=WHAT_IF, ledger=ledger) == expected
            elif fair.check_end(DAY if q == 4 else 0.5 * DAY, ledger=ledger) in (
                FairStatus.ENDED_BY_TIME,
                FairStatus.ENDED_BY_OPTIMAL_PRICE,
            ):
                # the other fair may have taken the stock this one counted on
                expected = scan_allocation(ledger.effective_sellers(sellers), fair.demand)
                try:
                    settlement = fair.settle(ledger=ledger)
                except InfeasibleDemandError:
                    assert expected is None
                else:
                    entries = settlement.allocation.entries if settlement.allocation else ()
                    assert {e.seller_id: e.quantity for e in entries} == expected
                try:
                    fairs[slot] = open_fair("paper", sellers, config, ledger=ledger)
                except ValueError:
                    fairs[slot] = None  # every unit committed


class TestFidelity:
    def test_empty_history_scores_zero(self):
        assert fidelity_score(None) == 0
        assert fidelity_score(BuyerHistory()) == 0

    def test_all_caps_score_one(self):
        full = BuyerHistory(
            purchases=20,
            payment_timing=PaymentTiming.BEFORE,
            social_actions=50,
            join_earliness=1.0,
        )
        assert fidelity_score(full) == 1

    def test_midpoint_example(self):
        # 0.4*0.5 + 0.2*0.5 + 0.2*0.5 + 0.2*0.5 = 0.5
        history = BuyerHistory(
            purchases=10,
            payment_timing=PaymentTiming.ON_DELIVERY,
            social_actions=25,
            join_earliness=0.5,
        )
        assert fidelity_score(history) == Fraction(1, 2)

    def test_counts_are_capped(self):
        history = BuyerHistory(purchases=1000, social_actions=9999)
        assert fidelity_score(history) == Fraction(2, 5) + Fraction(1, 5)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            BuyerHistory(purchases=-1)

    def test_join_earliness_clamps(self):
        assert join_earliness(0.0, 0.0, 10.0) == 1.0
        assert join_earliness(10.0, 0.0, 10.0) == 0.0
        assert join_earliness(5.0, 0.0, 10.0) == 0.5
        assert join_earliness(20.0, 0.0, 10.0) == 0.0


def settled_fair(orders, sellers=None, margin="0.05", discount="0.04"):
    config = FairConfig(
        max_duration=DAY,
        margin=Fraction(margin),
        fidelity_discount=Fraction(discount),
    )
    fair = SoloFair(sellers or [flat_seller(10, 100)], config)
    for o in orders:
        fair.join(o)
    fair.check_end(fair.deadline)
    return fair, fair.settle()


class TestSettlement:
    def test_worked_example(self):
        # cost 30 CU, margin 5% -> uniform 10.50; totals 21.00 + 10.50;
        # manager keeps 1.50
        _, settlement = settled_fair([order("b1", 2), order("b2", 1, join_time=2.0)])
        charges = {c.buyer_id: c for c in settlement.buyer_charges}
        assert charges["b1"].unit_price_cents == Fraction(1050)
        assert charges["b1"].total_cents == Fraction(2100)
        assert charges["b2"].total_cents == Fraction(1050)
        assert settlement.sellers_total_cents == 3000
        assert settlement.manager_revenue_cents == Fraction(150)
        assert settlement.buyers_total_cents >= settlement.sellers_total_cents

    def test_zero_margin_equal_fidelity_pays_fair_price(self):
        _, settlement = settled_fair(
            [order("b1", 2, fidelity="1/2"), order("b2", 3, join_time=2.0, fidelity="1/2")],
            margin="0",
        )
        for charge in settlement.buyer_charges:
            assert charge.unit_price_cents == Fraction(1000)
        assert settlement.manager_revenue_cents == 0

    def test_fidelity_tilts_prices_not_the_total(self):
        _, plain = settled_fair(
            [order("b1", 2), order("b2", 2, join_time=2.0)]
        )
        _, tilted = settled_fair(
            [order("b1", 2, fidelity=0), order("b2", 2, join_time=2.0, fidelity=1)]
        )
        charges = {c.buyer_id: c for c in tilted.buyer_charges}
        assert charges["b2"].unit_price_cents < charges["b1"].unit_price_cents
        assert tilted.buyers_total_cents == plain.buyers_total_cents

    def test_total_invariant_under_common_fidelity_shift(self):
        base = settled_fair(
            [order("b1", 2, fidelity="1/10"), order("b2", 5, join_time=2.0, fidelity="3/10")]
        )[1]
        shifted = settled_fair(
            [order("b1", 2, fidelity="6/10"), order("b2", 5, join_time=2.0, fidelity="8/10")]
        )[1]
        assert base.buyers_total_cents == shifted.buyers_total_cents

    def test_settle_requires_an_ended_fair(self):
        fair = SoloFair([flat_seller(10)])
        with pytest.raises(LifecycleError):
            fair.settle()

    def test_second_settle_is_rejected(self):
        fair, _ = settled_fair([order("b1", 1)])
        with pytest.raises(LifecycleError):
            fair.settle()

    def test_empty_fair_settles_empty(self):
        fair = SoloFair([flat_seller(10)], FairConfig(max_duration=DAY))
        fair.check_end(DAY)
        settlement = fair.settle()
        assert settlement.buyer_charges == ()
        assert settlement.manager_revenue_cents == 0
        assert fair.status is FairStatus.SETTLED

    def test_revenue_identity_on_random_fairs(self):
        rng = random.Random(79)
        for _ in range(60):
            margin = Fraction(rng.randint(0, 30), 100)
            n_buyers = rng.randint(1, 6)
            orders = [
                order(
                    f"b{i}",
                    rng.randint(1, 5),
                    join_time=float(i + 1),
                    fidelity=Fraction(rng.randint(0, 100), 100),
                )
                for i in range(n_buyers)
            ]
            sellers = [
                Seller(
                    f"S{j}",
                    linear_curve(rng.randint(5, 60), rng.randint(0, 2), rng.randint(1, 5)),
                    availability=rng.randint(30, 50),
                )
                for j in range(rng.randint(1, 3))
            ]
            config = FairConfig(max_duration=DAY, margin=margin)
            fair = SoloFair(sellers, config)
            for o in orders:
                fair.join(o)
            fair.check_end(fair.deadline)
            settlement = fair.settle()
            assert settlement.buyers_total_cents >= settlement.sellers_total_cents
            assert (
                settlement.buyers_total_cents - settlement.sellers_total_cents
                == settlement.manager_revenue_cents
            )
            assert settlement.buyers_total_cents == (1 + margin) * settlement.sellers_total_cents


class TestSellerLedger:
    def test_commit_tracks_availability(self):
        seller = flat_seller(10, availability=10)
        ledger = SellerLedger([seller])
        fair = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 4), ledger=ledger)
        fair.check_end(DAY, ledger=ledger)
        fair.settle(ledger=ledger)
        assert ledger.committed("S1") == 4
        assert ledger.available("S1") == 6

    def test_join_sees_other_fairs_commitments(self):
        seller = flat_seller(10, availability=5)
        ledger = SellerLedger([seller])
        first = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        first.join(order("b1", 3), ledger=ledger)
        first.check_end(DAY, ledger=ledger)
        first.settle(ledger=ledger)
        second = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        with pytest.raises(InfeasibleDemandError):
            second.join(order("b2", 3), ledger=ledger)

    def test_settlement_reallocates_with_remaining_capacity(self):
        # capacity is consumed by another fair between join and settle; the
        # settlement re-allocates from what is left
        cheap = flat_seller(10, availability=5, seller_id="A")
        backup = flat_seller(20, availability=5, seller_id="B")
        ledger = SellerLedger([cheap, backup])
        fair = open_fair("paper", [cheap, backup], FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 4), ledger=ledger)

        rival = open_fair("paper", [cheap], FairConfig(max_duration=DAY), ledger=ledger)
        rival.join(order("r1", 5), ledger=ledger)
        rival.check_end(DAY, ledger=ledger)
        rival.settle(ledger=ledger)

        fair.check_end(DAY, ledger=ledger)
        settlement = fair.settle(ledger=ledger)
        assert settlement.allocation.summary() == "B:4"

    def test_settlement_fails_with_shortfall_when_capacity_is_gone(self):
        seller = flat_seller(10, availability=5)
        ledger = SellerLedger([seller])
        fair = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 4), ledger=ledger)

        rival = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        rival.join(order("r1", 3), ledger=ledger)
        rival.check_end(DAY, ledger=ledger)
        rival.settle(ledger=ledger)

        fair.check_end(DAY, ledger=ledger)
        with pytest.raises(InfeasibleDemandError) as err:
            fair.settle(ledger=ledger)
        assert err.value.shortfall == 2

    def test_a_fair_whose_sellers_are_sold_out_runs_on_until_its_deadline(self):
        # a rival settlement takes every unit: the fair's curve is empty and has
        # no optimum, so it cannot end by price, and settling it finds no stock
        seller = flat_seller(10, availability=5)
        ledger = SellerLedger([seller])
        fair = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 2), ledger=ledger)

        rival = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        rival.join(order("r1", 5), ledger=ledger)
        rival.check_end(DAY, ledger=ledger)
        rival.settle(ledger=ledger)

        assert fair.check_end(0.5 * DAY, ledger=ledger) is FairStatus.RUNNING
        assert fair.check_end(DAY, ledger=ledger) is FairStatus.ENDED_BY_TIME
        with pytest.raises(InfeasibleDemandError) as err:
            fair.settle(ledger=ledger)
        assert err.value.shortfall == 2
        assert ledger.committed("S1") == 5

    def test_failed_commit_leaves_ledger_unchanged(self):
        seller = flat_seller(10, availability=5)
        ledger = SellerLedger([seller])
        fair = open_fair("paper", [seller], FairConfig(max_duration=DAY), ledger=ledger)
        fair.join(order("b1", 5), ledger=ledger)
        fair.check_end(DAY, ledger=ledger)
        fair.settle(ledger=ledger)

        from fair_engine.allocation import optimal_allocation

        with pytest.raises(LedgerCapacityError):
            ledger.commit(optimal_allocation([seller], 2))
        assert ledger.committed("S1") == 5

    def test_interleaved_settlements_never_oversell(self):
        rng = random.Random(83)
        sellers = [
            flat_seller(10 + i, availability=rng.randint(3, 8), seller_id=f"S{i}")
            for i in range(4)
        ]
        ledger = SellerLedger(sellers)
        settled = 0
        for i in range(12):
            try:
                fair = open_fair("paper", sellers, FairConfig(max_duration=DAY), ledger=ledger)
            except ValueError:
                break  # every unit committed
            q = rng.randint(1, 6)
            try:
                fair.join(order(f"b{i}", q), ledger=ledger)
            except InfeasibleDemandError:
                continue
            fair.check_end(DAY, ledger=ledger)
            fair.settle(ledger=ledger)
            settled += q
            for seller in sellers:
                assert ledger.committed(seller.id) <= seller.availability
        assert settled == sum(ledger.committed(s.id) for s in sellers)

    def test_threaded_commits_and_reads_never_oversell(self):
        # Under the GIL a check-then-commit race shows only at the last unit,
        # so the race is run for several rounds, each on a fresh ledger.
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
            os.cpu_count() or 1
        )
        n_readers = cores + 2  # more threads than cores
        n_writers = 2 * n_readers
        tries = 60 // n_writers + 5  # more one-unit commits than stock in all
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                self._race_for_the_last_unit(n_writers, n_readers, tries)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _race_for_the_last_unit(n_writers, n_readers, tries):
        seller = flat_seller(10, availability=50)
        ledger = SellerLedger([seller])
        one_unit = optimal_allocation([seller], 1)
        start = threading.Barrier(n_writers + n_readers)
        writers_done = threading.Event()
        outcomes, lowest_seen, errors = [], [], []

        def write():
            start.wait(timeout=10)
            for _ in range(tries):
                try:
                    ledger.commit(one_unit)
                    outcomes.append("committed")
                except LedgerCapacityError:
                    outcomes.append("rejected")

        def read():
            start.wait(timeout=10)
            lowest = 50
            try:
                while not writers_done.is_set():
                    (view,) = ledger.effective_sellers([seller])
                    lowest = min(lowest, view.availability)
            except ValueError as exc:  # a Seller with negative stock refuses to exist
                errors.append(exc)
            lowest_seen.append(lowest)

        writers = [threading.Thread(target=write) for _ in range(n_writers)]
        readers = [threading.Thread(target=read) for _ in range(n_readers)]
        try:
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=30)
        finally:
            writers_done.set()
            for thread in readers:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert errors == []
        assert outcomes.count("committed") == 50
        assert outcomes.count("rejected") == n_writers * tries - 50
        assert ledger.available("S1") == 0
        assert len(lowest_seen) == n_readers and min(lowest_seen) >= 0


class TestOrderValidation:
    def test_rejects_zero_quantity(self):
        with pytest.raises(ValueError):
            order("b1", 0)

    def test_rejects_non_positive_wait(self):
        with pytest.raises(ValueError):
            BuyerOrder(buyer_id="b1", quantity=1, max_wait=0.0, join_time=0.0)

    def test_rejects_out_of_range_fidelity(self):
        with pytest.raises(ValueError):
            order("b1", 1, fidelity=2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_wait(self, value):
        with pytest.raises(ValueError, match="max wait"):
            order("b1", 1, max_wait=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_join_time(self, value):
        with pytest.raises(ValueError, match="join time"):
            order("b1", 1, join_time=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite_duration(self, value):
        with pytest.raises(ValueError, match="max duration"):
            FairConfig(max_duration=value)

    def test_config_bounds_the_margin_to_a_full_markup(self):
        assert FairConfig(margin=1).margin == 1
        for margin in ("1.0001", "1e4300", "-0.01"):
            with pytest.raises(ValueError, match=r"margin must be in \[0, 1\]"):
                FairConfig(margin=margin)
