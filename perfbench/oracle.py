"""Independent oracles for the benchmark's output checks.

Nothing here imports `fair_engine.allocation` or `fair_engine.money`: the
min-cost DP, the min-scan envelope, the greedy fill and the decimal
rendering are written again from their definitions, so a fault in the
engine cannot hide behind a shared implementation.  A seller is passed as an
`Offer`: its id, its capacity for the demand range (None = unlimited) and
its `price_at` function (unit price in integer cents).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence


class Offer(NamedTuple):
    seller_id: str
    capacity: int | None
    price_at: Callable[[int], int]


def min_costs(offers: Sequence[Offer], q_max: int) -> list[int | None]:
    """Minimum total cost in cents for every demand 0..q_max (None = unreachable).

    Plain dynamic program over sellers: after seller k, best[q] is the
    cheapest way to buy exactly q units from sellers 1..k.
    """
    best: list[int | None] = [0] + [None] * q_max
    for offer in offers:
        x_max = q_max if offer.capacity is None else min(offer.capacity, q_max)
        costs = [x * offer.price_at(x) for x in range(1, x_max + 1)]
        new = best[:]
        for q in range(1, q_max + 1):
            b = new[q]
            for x in range(1, min(x_max, q) + 1):
                prev = best[q - x]
                if prev is not None:
                    c = prev + costs[x - 1]
                    if b is None or c < b:
                        b = c
            new[q] = b
        best = new
    return best


def min_scan(offers: Sequence[Offer], q_max: int) -> list[int]:
    """Cheapest single-seller unit price for every q in 1..q_max."""
    return [min(o.price_at(q) for o in offers) for q in range(1, q_max + 1)]


def greedy_price(offers: Sequence[Offer], q: int) -> Fraction:
    """Unit price of the greedy fill: rank by price on the coverable portion.

    Sellers are ranked by their price at min(q, capacity), ties by id, and
    drained in that order until q units are covered.
    """
    def cap(o: Offer) -> int:
        return q if o.capacity is None else min(o.capacity, q)

    ranked = sorted(
        (o for o in offers if cap(o) > 0),
        key=lambda o: (o.price_at(cap(o)), o.seller_id),
    )
    remaining, cost = q, 0
    for o in ranked:
        if remaining == 0:
            break
        take = min(cap(o), remaining)
        cost += take * o.price_at(take)
        remaining -= take
    if remaining:
        raise ValueError(f"greedy fill cannot cover {q} units")
    return Fraction(cost, q)


def first_minimum(values: Sequence) -> tuple[int, object]:
    """1-based position of the first minimum, and the minimum."""
    best = min(values)
    return values.index(best) + 1, best


def decimal_str(value: Fraction, places: int) -> str:
    """Exact value rounded half-to-even to `places` decimals, as text."""
    scaled = round(Fraction(value) * 10**places)  # Fraction rounds half to even
    sign = "-" if scaled < 0 else ""
    whole, part = divmod(abs(scaled), 10**places)
    return f"{sign}{whole}.{part:0{places}d}"


def cu4(cents: Fraction | int) -> str:
    """Cents rendered as currency units with four decimals."""
    return decimal_str(Fraction(cents) / 100, 4)
