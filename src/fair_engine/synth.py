"""Seeded seller populations and batch pricing experiments.

Populations draw the three curve parameters from fixed distributions:
single-product price ~ Normal(100, 20) CU, |discount rate| ~ Lognormal with
underlying mean -2 and sigma 2 (so the median rate is e^-2 ~ 0.135 CU/unit),
saturation price ~ Normal(60, 12) CU.  Draws are rejected and resampled
until 0 < saturation < single-product price.  The generator is PCG64 so a
seed reproduces bit-identically across platforms; the algorithm name is
recorded in every output header.

An experiment run builds the fair price curve of one population at one
per-seller availability with both the exact and the greedy allocator, and
summarizes the optimum, non-monotonicity, and the greedy price gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from typing import Sequence

import numpy as np

from .allocation import (
    FairPriceCurve,
    OptimalPoint,
    Seller,
    fair_price_curve,
    optimal_demand,
    total_availability,
)
from .curves import LinearPlateauCurve

__all__ = [
    "RNG_ALGORITHM",
    "PopulationSpec",
    "ExperimentRun",
    "generate_sellers",
    "run_experiment",
]

RNG_ALGORITHM = "pcg64"

_REJECTION_CAP = 10_000


# distribution parameters of every population (see the module docstring)
P1_MEAN, P1_SD = 100.0, 20.0
RATE_LOG_MEAN, RATE_LOG_SD = -2.0, 2.0
SAT_MEAN, SAT_SD = 60.0, 12.0


@dataclass(frozen=True)
class PopulationSpec:
    """Size, seed and per-seller stock of a seller population."""

    n_sellers: int = 20
    seed: int = 0
    availability: int | None = None  # None = unlimited, else homogeneous stock

    def __post_init__(self) -> None:
        if self.n_sellers < 1:
            raise ValueError("population needs at least one seller")
        if self.availability is not None and self.availability < 0:
            raise ValueError("availability must be >= 0")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _draw_triple(rng: np.random.Generator):
    p1 = rng.normal(P1_MEAN, P1_SD)
    rate = rng.lognormal(RATE_LOG_MEAN, RATE_LOG_SD)
    sat = rng.normal(SAT_MEAN, SAT_SD)
    return p1, rate, sat


def _on_grid(value: float, step: str) -> Decimal:
    return Decimal(repr(value)).quantize(Decimal(step), rounding=ROUND_HALF_EVEN)


def generate_sellers(spec: PopulationSpec) -> list[Seller]:
    """Draw a deterministic seller population from the spec's seed.

    Parameter triples are re-drawn until the quantized values satisfy
    0 < saturation < single-product price; amounts land on the cent grid,
    rates on a 0.0001 CU grid.
    """
    rng = _rng(spec.seed)
    sellers: list[Seller] = []
    for i in range(spec.n_sellers):
        for _ in range(_REJECTION_CAP):
            p1, rate, sat = _draw_triple(rng)
            p1_cents = int(_on_grid(p1, "0.01") * 100)
            sat_cents = int(_on_grid(sat, "0.01") * 100)
            if 0 < sat_cents < p1_cents:
                break
        else:
            raise RuntimeError("rejection sampling exceeded the retry cap")
        curve = LinearPlateauCurve(
            p1_cents=p1_cents, rate=Fraction(_on_grid(rate, "0.0001")), sat_cents=sat_cents
        )
        sellers.append(
            Seller(id=f"S{i:03d}", curve=curve, availability=spec.availability)
        )
    return sellers


@dataclass(frozen=True)
class ExperimentRun:
    """Fair price curves and summary for one availability value."""

    availability: int | None
    curve_exact: FairPriceCurve
    curve_greedy: FairPriceCurve
    optimal: OptimalPoint
    nonmonotone: bool
    max_greedy_gap: Fraction
    notices: tuple[str, ...] = ()


def run_experiment(
    population: Sequence[Seller],
    availability: int | None,
    q_max: int,
    method: str = "exact",
) -> ExperimentRun:
    """Fair price curves of one population at one per-seller stock.

    Each run gives the population's sellers the same stock and keeps their
    curve objects, so runs at different availabilities compare the same
    sellers and read each curve's memoized price table.  The run records
    both solver curves, the optimal point of the `method` curve, whether
    that curve is non-monotone, and the largest relative price excess of
    greedy over exact.  Without a stock limit the greedy fill takes the
    envelope's seller, so the exact curve serves as the greedy one.  A
    demand range beyond the total stock is truncated with a notice; no stock is refused.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    if availability is not None and availability < 0:
        raise ValueError("availability must be >= 0")
    sellers = [replace(s, availability=availability) for s in population]
    notices = []
    feasible = total_availability(sellers)
    if feasible == 0:
        raise ValueError("no seller has stock, so the fair price curve is empty")
    if feasible is not None and feasible < q_max:
        notices.append(
            f"availability={availability}: demand range truncated to "
            f"q<={feasible} (total stock)"
        )
    exact = fair_price_curve(sellers, q_max, method="exact")
    greedy = exact if availability is None else fair_price_curve(sellers, q_max, method="greedy")
    summary_curve = exact if method == "exact" else greedy
    optimal = optimal_demand(summary_curve)
    # the gap is greedy_cost/exact_cost - 1 (q cancels): keep the largest cost
    # ratio num/den, compared by cross-multiplying, starting from 1/1 (no gap)
    num, den = 1, 1
    for cost_exact, cost_greedy in zip(exact.costs, greedy.costs):
        if cost_greedy * den > num * cost_exact:
            num, den = cost_greedy, cost_exact
    return ExperimentRun(
        availability=availability,
        curve_exact=exact,
        curve_greedy=greedy,
        optimal=optimal,
        nonmonotone=not summary_curve.is_monotone_non_increasing(),
        max_greedy_gap=Fraction(num - den, den),
        notices=tuple(notices),
    )
