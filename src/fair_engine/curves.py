"""Seller price/quantity curves and their multi-seller lower envelope.

A curve maps a demanded quantity (positive integer) to a unit price in cents
and is monotone non-increasing: the more units demanded, the cheaper each one
gets.  Two shapes are supported:

* a linear slope clamped at a saturation plateau, defined by the
  single-product price, the per-unit discount rate, and the plateau price
  (the floor below which discounts stop, covering production cost);
* a tabular step function of (quantity threshold, unit price) bands.

The lower envelope across sellers is the pointwise cheapest curve, labelled
with the seller that provides each quantity range.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import index as as_int
from typing import Iterable, Sequence

import numpy as np

from .money import Cents, cents, div_round_half_even, ratio

__all__ = [
    "PriceCurve",
    "LinearPlateauCurve",
    "TabularCurve",
    "Envelope",
    "EnvelopePoint",
    "EnvelopeSegment",
    "linear_curve",
    "tabular_curve",
    "lower_envelope",
]

def _check_quantity(q: int) -> None:
    if isinstance(q, bool):
        raise ValueError(f"quantity must be a positive integer, got {q!r}")
    try:
        value = as_int(q)
    except TypeError:
        raise ValueError(f"quantity must be a positive integer, got {q!r}") from None
    if value < 1:
        raise ValueError(f"quantity must be a positive integer, got {q!r}")


class PriceCurve:
    """Common interface: `price_at(q)` returns the unit price in cents."""

    _table: list[Cents] = []  # the longest table read so far; replaced, never mutated

    def price_at(self, q: int) -> Cents:
        raise NotImplementedError

    def _memo_table(self, x_max: int) -> list[Cents]:
        """The curve's own prices for at least x = 0..x_max (x = 0 is priced 0): never mutate it.

        A curve is immutable, so it keeps the longest table read so far.
        The memo is swapped in one assignment, so reads on several threads
        each see a whole table.
        """
        table = self._table
        if len(table) <= x_max:
            table = self._fresh_table(x_max)
            object.__setattr__(self, "_table", table)
        return table

    def _fresh_table(self, x_max: int) -> list[Cents]:
        return [0] + [self.price_at(x) for x in range(1, x_max + 1)]


@dataclass(frozen=True)
class LinearPlateauCurve(PriceCurve):
    """Unit price p1 - rate*(q-1), clamped below at the saturation price.

    `p1_cents` and `sat_cents` are integer cents; `rate` is an exact Fraction
    in CU per unit.  Evaluation happens in exact rational arithmetic and is
    rounded to the cent grid (ties to even), which preserves monotonicity.
    """

    p1_cents: Cents
    rate: Fraction
    sat_cents: Cents

    def __post_init__(self) -> None:
        if self.p1_cents <= 0:
            raise ValueError("single-product price must be positive")
        if self.sat_cents <= 0:
            raise ValueError("saturation price must be positive")
        if self.sat_cents > self.p1_cents:
            raise ValueError("saturation price cannot exceed the single-product price")
        if self.rate < 0:
            raise ValueError("discount rate cannot be negative")

    def price_at(self, q: int) -> Cents:
        _check_quantity(q)
        num = self.rate.numerator * 100  # rate in cents per unit
        den = self.rate.denominator
        value_num = self.p1_cents * den - num * (q - 1)
        if value_num <= self.sat_cents * den:
            return self.sat_cents
        return div_round_half_even(value_num, den)

    def _fresh_table(self, x_max: int) -> list[Cents]:
        # price_at's arithmetic in one pass: the numerator falls by the rate
        # per unit until the plateau, which fills the rest of the table
        num = self.rate.numerator * 100
        den = self.rate.denominator
        floor = self.sat_cents * den
        value_num = self.p1_cents * den
        table = [0]
        for x in range(1, x_max + 1):
            if value_num <= floor:
                table.extend([self.sat_cents] * (x_max + 1 - x))
                break
            table.append(div_round_half_even(value_num, den))
            value_num -= num
        return table


@dataclass(frozen=True)
class TabularCurve(PriceCurve):
    """Step curve: unit price is constant within each quantity band."""

    bands: tuple[tuple[int, Cents], ...]  # (threshold, price), thresholds ascending

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError("tabular curve needs at least one band")
        if self.bands[0][0] != 1:
            raise ValueError("first band must start at quantity 1")
        for (t_prev, p_prev), (t_next, p_next) in zip(self.bands, self.bands[1:]):
            if t_next <= t_prev:
                raise ValueError("band thresholds must be strictly increasing")
            if p_next >= p_prev:
                raise ValueError("band prices must be strictly decreasing")
        for threshold, price in self.bands:
            if threshold < 1:
                raise ValueError("band thresholds must be positive integers")
            if price <= 0:
                raise ValueError("band prices must be positive")
        object.__setattr__(self, "_thresholds", tuple(t for t, _ in self.bands))

    def price_at(self, q: int) -> Cents:
        _check_quantity(q)
        idx = bisect_right(self._thresholds, q) - 1
        return self.bands[idx][1]


def linear_curve(p1, rate, sat) -> LinearPlateauCurve:
    """Build a slope-plateau curve from CU amounts (str, Decimal, int, float)."""
    return LinearPlateauCurve(p1_cents=cents(p1), rate=ratio(rate), sat_cents=cents(sat))


def tabular_curve(bands: Iterable[tuple[int, object]]) -> TabularCurve:
    """Build a step curve from (threshold, CU price) pairs."""
    parsed = tuple((int(t), cents(p)) for t, p in bands)
    return TabularCurve(bands=parsed)


@dataclass(frozen=True)
class EnvelopePoint:
    q: int
    seller_id: str
    price_cents: Cents


@dataclass(frozen=True)
class EnvelopeSegment:
    q_from: int
    q_to: int
    seller_id: str


@dataclass(frozen=True)
class Envelope:
    """Pointwise minimum over seller curves with best-seller labels.

    `segments` partition [1, q_max] into maximal runs served by one seller.
    Price ties go to the lowest seller id so output is deterministic.
    """

    points: tuple[EnvelopePoint, ...]
    segments: tuple[EnvelopeSegment, ...]


def lower_envelope(sellers: Sequence[tuple[str, PriceCurve]], q_max: int) -> Envelope:
    """Compute the best single-seller price for every quantity 1..q_max.

    The sellers' memoized price tables are scanned in id order, and each
    keeps the quantities where it is strictly cheaper than every lower id,
    so price ties go to the lowest id.  Prices are int64 when every
    single-unit price fits, and Python ints otherwise.
    """
    if not sellers:
        raise ValueError("envelope needs at least one seller")
    _check_quantity(q_max)
    ordered = sorted(sellers, key=lambda pair: pair[0])
    ids = [sid for sid, _ in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("seller ids must be unique")

    tables = [curve._memo_table(q_max) for _, curve in ordered]
    top = max(table[1] for table in tables)  # prices are non-increasing
    dtype = np.int64 if top < (1 << 63) else object
    best = np.zeros(q_max, dtype=dtype)
    pick = np.zeros(q_max, dtype=np.intp)
    for i, table in enumerate(tables):
        prices = np.fromiter(islice(table, 1, q_max + 1), dtype, q_max)
        cheaper = prices < best if i else slice(None)
        best[cheaper] = prices[cheaper]
        pick[cheaper] = i
    points = tuple(
        EnvelopePoint(q=q, seller_id=ids[i], price_cents=price)
        for q, i, price in zip(range(1, q_max + 1), pick.tolist(), best.tolist())
    )

    segments: list[EnvelopeSegment] = []
    start = 1
    for prev, nxt in zip(points, points[1:]):
        if nxt.seller_id != prev.seller_id:
            segments.append(EnvelopeSegment(start, prev.q, prev.seller_id))
            start = nxt.q
    segments.append(EnvelopeSegment(start, points[-1].q, points[-1].seller_id))
    return Envelope(points=points, segments=tuple(segments))
