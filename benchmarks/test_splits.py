"""Split reads of a fair price curve, timed with pytest-benchmark.

A curve keeps the fills of every demand once `summaries()` has read them,
so each round times a read on a curve built fresh in the (untimed) setup:
`summaries()` for the exact DP, envelope and greedy paths, and one exact
`allocation(q)` at the top demand and at a mid demand, the read a fair's
settlement or `allocate --method exact` makes, which walks that demand alone.

Shapes:
- `north_star`: 200 tabular sellers, stock drawn from 0..40, demands to 2,000;
- `lifecycle`: 50 generated linear sellers, stock drawn from 20..60, demands
  to 300, the curve a `fair_lifecycle` settlement reads;
- `market`: 20 generated linear sellers, stock drawn from 10..30, demands to
  100, the curve a `fair_market` join builds.

Run with `python -m pytest benchmarks`; `--benchmark-disable` runs each case
once, as a smoke test.  Tier-1 (`testpaths = tests`) does not collect them.
"""

import random
from dataclasses import replace

import pytest

from fair_engine.allocation import Seller, fair_price_curve
from fair_engine.curves import TabularCurve
from fair_engine.synth import PopulationSpec, generate_sellers


def tabular_market(n: int, q_max: int) -> list[Seller]:
    """n step-curve sellers, each cut three times below q_max, with stock drawn from 0..40."""
    rng = random.Random(2000)
    sellers = []
    for i in range(n):
        cuts = sorted(rng.sample(range(2, q_max), 3))
        prices = sorted(rng.sample(range(100, 50_000), 4), reverse=True)
        curve = TabularCurve(tuple(zip([1, *cuts], prices)))
        sellers.append(Seller(f"S{i:03d}", curve, rng.randint(0, 40)))
    return sellers


def north_star() -> tuple[list[Seller], int]:
    return tabular_market(200, 2000), 2000


def lifecycle() -> tuple[list[Seller], int]:
    rng = random.Random(300)
    population = generate_sellers(PopulationSpec(n_sellers=50, seed=300))
    return [replace(s, availability=rng.randint(20, 60)) for s in population], 300


def market() -> tuple[list[Seller], int]:
    rng = random.Random(100)
    population = generate_sellers(PopulationSpec(n_sellers=20, seed=100))
    return [replace(s, availability=rng.randint(10, 30)) for s in population], 100


SHAPES = {"north_star": north_star, "lifecycle": lifecycle, "market": market}
PATHS = {
    "exact": ("exact", False),
    "envelope": ("exact", True),  # no stock limit: both methods read the envelope
    "greedy": ("greedy", False),
}


def fresh_curves(shape: str, path: str):
    """A setup for `benchmark.pedantic` that builds a new curve for each round."""
    sellers, q_max = SHAPES[shape]()
    method, unlimited = PATHS[path]
    if unlimited:
        sellers = [replace(s, availability=None) for s in sellers]
    fair_price_curve(sellers, q_max, method=method)  # fill every seller's price-table memo
    return lambda: ((fair_price_curve(sellers, q_max, method=method),), {})


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_summaries(benchmark, shape, path):
    texts = benchmark.pedantic(
        lambda curve: curve.summaries(), setup=fresh_curves(shape, path), rounds=5
    )
    assert len(texts) == SHAPES[shape]()[1]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_first_exact_allocation(benchmark, shape):
    q = SHAPES[shape]()[1]
    allocation = benchmark.pedantic(
        lambda curve: curve.allocation(q), setup=fresh_curves(shape, "exact"), rounds=5
    )
    assert allocation.total_quantity == q


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_mid_demand_exact_allocation(benchmark, shape):
    q = SHAPES[shape]()[1] // 2
    allocation = benchmark.pedantic(
        lambda curve: curve.allocation(q), setup=fresh_curves(shape, "exact"), rounds=5
    )
    assert allocation.total_quantity == q
