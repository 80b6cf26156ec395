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

import numpy as np

from .allocation import (
    FairPriceCurve,
    OptimalPoint,
    Seller,
    fair_price_curve,
    greedy_allocation,
    optimal_allocation,
    optimal_demand,
    total_availability,
)
from .curves import LinearPlateauCurve

__all__ = [
    "RNG_ALGORITHM",
    "PopulationSpec",
    "ExperimentRun",
    "GreedyAuditReport",
    "raw_parameter_draws",
    "generate_sellers",
    "run_experiment",
    "random_small_instances",
    "audit_greedy_vs_exact",
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


def raw_parameter_draws(spec: PopulationSpec, count: int):
    """Pre-rejection parameter draws, for distribution checks."""
    rng = _rng(spec.seed)
    p1s = np.empty(count)
    rates = np.empty(count)
    sats = np.empty(count)
    for i in range(count):
        p1s[i], rates[i], sats[i] = _draw_triple(rng)
    return p1s, rates, sats


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
    spec: PopulationSpec,
    availability: int | None,
    q_max: int,
    method: str = "exact",
) -> ExperimentRun:
    """Fair price curves of the spec's population at one per-seller stock.

    One seed yields one population, so runs at different availabilities
    compare the same sellers.  The run records both solver curves, the
    optimal point of the `method` curve, whether that curve is non-monotone,
    and the largest relative price excess of greedy over exact.  A demand
    range larger than the total stock is truncated with a notice.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    sellers = generate_sellers(replace(spec, availability=availability))
    notices = []
    feasible = total_availability(sellers)
    if feasible is not None and feasible < q_max:
        notices.append(
            f"availability={availability}: demand range truncated to "
            f"q<={feasible} (total stock)"
        )
    exact = fair_price_curve(sellers, q_max, method="exact")
    greedy = fair_price_curve(sellers, q_max, method="greedy")
    summary_curve = exact if method == "exact" else greedy
    optimal = optimal_demand(summary_curve)
    gap = Fraction(0)
    for pe, pg in zip(exact.points, greedy.points):
        rel = (pg.price_cents - pe.price_cents) / pe.price_cents
        if rel > gap:
            gap = rel
    return ExperimentRun(
        availability=availability,
        curve_exact=exact,
        curve_greedy=greedy,
        optimal=optimal,
        nonmonotone=not summary_curve.is_monotone_non_increasing(),
        max_greedy_gap=gap,
        notices=tuple(notices),
    )


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


@dataclass(frozen=True)
class GreedyAuditReport:
    """How far the greedy fill strays from the exact optimum."""

    instances: int
    suboptimal_count: int
    max_relative_gap: Fraction


def audit_greedy_vs_exact(instances: list[SmallInstance]) -> GreedyAuditReport:
    """Compare greedy and exact prices over an instance set.

    The greedy price can never be below the exact optimum; the report
    counts the strictly suboptimal cases and the worst relative excess.
    """
    suboptimal = 0
    worst = Fraction(0)
    for inst in instances:
        exact = optimal_allocation(inst.sellers, inst.demand)
        greedy = greedy_allocation(inst.sellers, inst.demand)
        gap = (
            greedy.fair_unit_price_cents - exact.fair_unit_price_cents
        ) / exact.fair_unit_price_cents
        if gap < 0:
            raise AssertionError(
                f"greedy beat the exact solver on {inst}: gap {gap}"
            )
        if gap > 0:
            suboptimal += 1
        if gap > worst:
            worst = gap
    return GreedyAuditReport(
        instances=len(instances),
        suboptimal_count=suboptimal,
        max_relative_gap=worst,
    )
