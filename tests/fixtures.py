"""Fixed-seed test data: raw population draws, and small allocation
problems the oracles can brute-force.

Both come from the engine's own PCG64 stream, so a seed gives the same
data on every platform.  Production code never imports this.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fair_engine.allocation import Seller
from fair_engine.curves import LinearPlateauCurve
from fair_engine.synth import _draw_triple, _rng


def raw_parameter_draws(seed: int, count: int):
    """A population's (p1, rate, sat) draws before any rejection, one array each."""
    rng = _rng(seed)
    return np.array([_draw_triple(rng) for _ in range(count)]).T


@dataclass(frozen=True)
class SmallInstance:
    """A desk-scale allocation problem for oracle comparisons."""

    sellers: tuple[Seller, ...]
    demand: int


def random_small_instances(
    seed: int,
    count: int,
    max_sellers: int = 4,
    max_availability: int = 6,
    max_demand: int = 12,
) -> list[SmallInstance]:
    """Feasible random instances small enough to brute-force."""
    rng = _rng(seed)
    instances: list[SmallInstance] = []
    while len(instances) < count:
        n = int(rng.integers(1, max_sellers + 1))
        sellers = []
        total = 0
        for i in range(n):
            p1_cents = int(rng.integers(200, 15_001))
            sat_cents = int(rng.integers(1, p1_cents + 1))
            rate_cents = int(rng.integers(0, 401))
            availability = int(rng.integers(0, max_availability + 1))
            total += availability
            curve = LinearPlateauCurve(
                p1_cents=p1_cents, rate=Fraction(rate_cents, 100), sat_cents=sat_cents
            )
            sellers.append(Seller(id=f"S{i}", curve=curve, availability=availability))
        if total < 1:
            continue
        demand = int(rng.integers(1, min(total, max_demand) + 1))
        instances.append(SmallInstance(sellers=tuple(sellers), demand=demand))
    return instances
