"""Tests for seeded population generation and the experiment harness."""

import math
from fractions import Fraction

import numpy as np
import pytest
from fixtures import random_small_instances, raw_parameter_draws

from fair_engine.curves import lower_envelope
from fair_engine.synth import PopulationSpec, generate_sellers, run_experiment


class TestGenerateSellers:
    def test_same_seed_same_population(self):
        spec = PopulationSpec(n_sellers=20, seed=1234)
        assert generate_sellers(spec) == generate_sellers(spec)

    def test_different_seed_different_population(self):
        a = generate_sellers(PopulationSpec(n_sellers=20, seed=1))
        b = generate_sellers(PopulationSpec(n_sellers=20, seed=2))
        assert a != b

    def test_curves_are_valid_after_rejection(self):
        for seed in range(10):
            for seller in generate_sellers(PopulationSpec(n_sellers=20, seed=seed)):
                curve = seller.curve
                assert 0 < curve.sat_cents < curve.p1_cents
                assert curve.rate >= 0

    def test_availability_is_applied(self):
        sellers = generate_sellers(PopulationSpec(n_sellers=5, seed=3, availability=7))
        assert all(s.availability == 7 for s in sellers)
        sellers = generate_sellers(PopulationSpec(n_sellers=5, seed=3))
        assert all(s.availability is None for s in sellers)

    def test_ids_are_stable_and_sorted(self):
        sellers = generate_sellers(PopulationSpec(n_sellers=12, seed=4))
        assert [s.id for s in sellers] == [f"S{i:03d}" for i in range(12)]

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            PopulationSpec(n_sellers=0)

    def test_rejection_keeps_distribution_shape(self):
        # smoke check, not a strict gate: accepted parameters should still
        # look like the raw distributions conditioned on sat < p1
        sellers = [
            s
            for seed in range(40)
            for s in generate_sellers(PopulationSpec(n_sellers=25, seed=7000 + seed))
        ]
        p1s = np.array([s.curve.p1_cents / 100 for s in sellers])
        sats = np.array([s.curve.sat_cents / 100 for s in sellers])
        # conditioning on sat < p1 pushes p1 up and sat down a little
        assert 98.0 < float(np.mean(p1s)) < 108.0
        assert 12.0 < float(np.std(p1s)) < 28.0
        assert 52.0 < float(np.mean(sats)) < 62.0
        rates = np.array([float(s.curve.rate) for s in sellers])
        assert 0.08 < float(np.median(rates)) < 0.20


class TestRawDraws:
    def test_sample_mean_of_headline_price(self):
        # sd/sqrt(n) = 20/100 = 0.2, so +-1 CU is a five-sigma gate
        p1s, _, _ = raw_parameter_draws(99, 10_000)
        assert abs(float(np.mean(p1s)) - 100.0) < 1.0

    def test_sample_median_of_discount_rate(self):
        # lognormal median is e^mu = e^-2
        _, rates, _ = raw_parameter_draws(99, 10_000)
        assert abs(float(np.median(rates)) - math.exp(-2)) < 0.02

    def test_sample_mean_of_saturation_price(self):
        _, _, sats = raw_parameter_draws(99, 10_000)
        assert abs(float(np.mean(sats)) - 60.0) < 0.6

    def test_draws_are_reproducible(self):
        a = raw_parameter_draws(5, 100)
        b = raw_parameter_draws(5, 100)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestRunExperiment:
    def test_unlimited_availability_reproduces_the_envelope(self):
        spec = PopulationSpec(n_sellers=20, seed=7)
        run = run_experiment(generate_sellers(spec), None, q_max=60)
        sellers = generate_sellers(spec)
        env = lower_envelope([(s.id, s.curve) for s in sellers], 60)
        for point in run.curve_exact.points:
            assert point.price_cents == env.price_at(point.q)
        assert not run.nonmonotone

    def test_same_population_across_availabilities(self):
        spec = PopulationSpec(n_sellers=10, seed=11)
        runs = [run_experiment(generate_sellers(spec), a, q_max=30) for a in (5, 20, None)]
        curves = [
            {e.seller_id: e.unit_price_cents for e in run.curve_exact.allocation(1).entries}
            for run in runs
        ]
        assert curves[0] == curves[1] == curves[2]

    def test_every_availability_reads_the_population_curves(self):
        # runs set the stock on the population's sellers and keep their curve
        # objects, so every run reads the same memoized price tables
        population = generate_sellers(PopulationSpec(n_sellers=6, seed=11))
        for availability in (3, None):
            run = run_experiment(population, availability, q_max=12)
            split = run.curve_exact.allocation(len(run.curve_exact.points))
            by_id = {s.id: s.curve for s in population}
            for entry in split.entries:
                assert entry.unit_price_cents == by_id[entry.seller_id].price_at(entry.quantity)
        assert all(s.availability is None for s in population)
        assert all(len(s.curve._table) == 13 for s in population)

    def test_larger_availability_never_raises_the_curve(self):
        spec = PopulationSpec(n_sellers=10, seed=13)
        population = generate_sellers(spec)
        small, mid, large = (run_experiment(population, a, q_max=40) for a in (4, 8, 16))
        for a, b in ((small, mid), (mid, large)):
            for pa, pb in zip(a.curve_exact.points, b.curve_exact.points):
                assert pb.price_cents <= pa.price_cents

    def test_homogeneous_stock_matches_envelope_up_to_q(self):
        # while one seller can still cover the whole demand, the exact fair
        # price is the envelope price
        spec = PopulationSpec(n_sellers=8, seed=17)
        q_stock = 9
        run = run_experiment(generate_sellers(spec), q_stock, q_max=q_stock)
        sellers = generate_sellers(spec)
        env = lower_envelope([(s.id, s.curve) for s in sellers], q_stock)
        for point in run.curve_exact.points:
            assert point.price_cents == env.price_at(point.q)

    def test_stock_level_attains_the_optimum(self):
        # with homogeneous stock Q the demand q=Q is always a global minimum
        spec = PopulationSpec(n_sellers=12, seed=19)
        for q_stock in (3, 7, 15):
            run = run_experiment(generate_sellers(spec), q_stock, q_max=80)
            z_at_stock = run.curve_exact.price_at(q_stock)
            assert run.optimal.z_star_cents == z_at_stock
            assert run.optimal.q_star <= q_stock

    def test_truncation_produces_a_notice(self):
        spec = PopulationSpec(n_sellers=3, seed=23)
        run = run_experiment(generate_sellers(spec), 2, q_max=50)
        assert run.notices and "truncated" in run.notices[0]
        assert run.curve_exact.points[-1].q == 6

    def test_greedy_gap_is_non_negative(self):
        spec = PopulationSpec(n_sellers=10, seed=29)
        for availability in (4, None):
            run = run_experiment(generate_sellers(spec), availability, q_max=30)
            assert run.max_greedy_gap >= 0

    @pytest.mark.parametrize("availability", [1, 10, None])
    def test_greedy_gap_is_the_largest_relative_excess(self, availability):
        population = generate_sellers(PopulationSpec(n_sellers=12, seed=31))
        run = run_experiment(population, availability, q_max=40)
        expected = max(
            (g.price_cents - e.price_cents) / e.price_cents
            for e, g in zip(run.curve_exact.points, run.curve_greedy.points)
        )
        assert isinstance(run.max_greedy_gap, Fraction)
        assert run.max_greedy_gap == max(expected, 0)
        if availability is None:  # one seller covers every demand, so greedy is exact
            assert run.max_greedy_gap == 0
        if availability == 10:
            assert run.max_greedy_gap > 0

    def test_rejects_bad_arguments(self):
        spec = PopulationSpec(n_sellers=3, seed=1)
        with pytest.raises(ValueError):
            run_experiment(generate_sellers(spec), None, q_max=0)
        with pytest.raises(ValueError):
            run_experiment(generate_sellers(spec), None, q_max=5, method="magic")
        with pytest.raises(ValueError, match="^availability must be >= 0$"):
            run_experiment(generate_sellers(spec), -1, q_max=5)


class TestAudit:
    """The seeded small instances the greedy-vs-exact audits run on."""

    def test_instances_are_reproducible(self):
        a = random_small_instances(seed=37, count=50)
        b = random_small_instances(seed=37, count=50)
        assert a == b

    def test_instances_respect_bounds(self):
        for inst in random_small_instances(
            seed=41, count=100, max_sellers=4, max_availability=6, max_demand=12
        ):
            assert 1 <= len(inst.sellers) <= 4
            assert all(0 <= s.availability <= 6 for s in inst.sellers)
            total = sum(s.availability for s in inst.sellers)
            assert 1 <= inst.demand <= min(total, 12)
