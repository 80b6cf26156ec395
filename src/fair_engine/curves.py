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

Sweeps read a curve as an integer price table from `price_tables`, which
fills every short table of a call together (linear curves in one numpy
pass) and keeps the longest on the curve as a read-only array.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import index as as_int
from typing import Iterable, Iterator, Sequence

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
    "price_tables",
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

    # the longest table `price_tables` has made for the curve: read-only, replaced, never mutated
    _table: np.ndarray = np.zeros(0, dtype=np.int64)

    def price_at(self, q: int) -> Cents:
        raise NotImplementedError


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

    def _integers(self) -> tuple[int, int, int, int]:
        """`price_at`'s integers, over the rate's denominator den.

        They are p1 * den, the fall per unit (the rate's numerator * 100),
        sat * den and den.
        """
        den = self.rate.denominator
        return self.p1_cents * den, self.rate.numerator * 100, self.sat_cents * den, den

    def price_at(self, q: int) -> Cents:
        _check_quantity(q)
        top, fall, floor, den = self._integers()
        value_num = top - fall * (q - 1)
        if value_num <= floor:
            return self.sat_cents
        return div_round_half_even(value_num, den)


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


_FILL_BLOCK_CELLS = 1 << 18  # grid cells per numpy step, so temporaries stay bounded


def price_tables(curves: Sequence[PriceCurve], x_max: int | Sequence[int]) -> list[np.ndarray]:
    """Each curve's own prices for at least x = 0..x_max (x = 0 is priced 0).

    `x_max` is one length for every curve or one per curve.  A curve is
    immutable, so it keeps the longest table made so far, a read-only array
    swapped in one assignment: reads on several threads each see a whole
    table.  The curves whose table is too short are filled together: linear
    curves in one pass over (curves, x) grids of at most _FILL_BLOCK_CELLS
    cells, with `price_at`'s integers, any other curve from `price_at`.  A
    table is int64, or Python ints (object) when its top price does not fit.
    """
    needs = [x_max] * len(curves) if isinstance(x_max, int) else x_max
    tables = [curve._table for curve in curves]
    # a curve listed twice is filled once, to its longest x_max
    short: dict[int, tuple[PriceCurve, int]] = {}
    for curve, need, table in zip(curves, needs, tables):
        if len(table) <= need and need > short.get(id(curve), (curve, -1))[1]:
            short[id(curve)] = (curve, need)
    if not short:
        return tables
    linear = [pair for pair in short.values() if isinstance(pair[0], LinearPlateauCurve)]
    others = [(curve, _tabulated(curve, need)) for curve, need in short.values()
              if not isinstance(curve, LinearPlateauCurve)]
    filled = {}
    for curve, table in chain(_linear_tables(linear), others):
        table.flags.writeable = False
        object.__setattr__(curve, "_table", table)
        filled[id(curve)] = table
    return [filled.get(id(curve), table) for curve, table in zip(curves, tables)]


def _tabulated(curve: PriceCurve, x_max: int) -> np.ndarray:
    """A table from `price_at`; prices are non-increasing, so x = 1 holds the top price."""
    prices = [0] + [curve.price_at(x) for x in range(1, x_max + 1)]
    if x_max and prices[1] >= 1 << 63:
        return np.array(prices, dtype=object)
    return np.fromiter(prices, np.int64, x_max + 1)


def _linear_tables(
    pending: Sequence[tuple[LinearPlateauCurve, int]],
) -> Iterator[tuple[LinearPlateauCurve, np.ndarray]]:
    """Each (curve, x_max)'s table from `price_at`'s arithmetic over (curves, x) grids.

    The curves are taken longest first, so a grid's width is its first
    curve's.  The arithmetic is int64 for the curves whose integers stay
    below 2**62 at every x, and Python ints (object) for the rest.
    """
    groups: dict[type, list] = {np.int64: [], object: []}  # (curve, x_max, its parameters)
    for curve, need in sorted(pending, key=lambda pair: -pair[1]):
        top, fall, floor, den = curve._integers()
        fits = max(top, fall * need, den) < (1 << 62)
        params = (top, fall, floor, den, curve.sat_cents)
        groups[np.int64 if fits else object].append((curve, need, params))
    for dtype, group in groups.items():
        first = 0
        while first < len(group):
            width = group[first][1] + 1
            block = group[first : first + max(1, _FILL_BLOCK_CELLS // width)]
            first += len(block)
            top, fall, floor, den, sat = (
                np.array(column, dtype=dtype)[:, None]
                for column in zip(*(params for _, _, params in block))
            )
            value = top - fall * np.arange(width - 1, dtype=dtype)  # x - 1 for x = 1..
            grid = np.zeros((len(block), width), dtype=dtype)
            grid[:, 1:] = np.where(value <= floor, sat, div_round_half_even(value, den))
            for (curve, _, _), row in zip(block, grid):  # each curve's own copy of its row
                yield curve, row.astype(np.int64 if curve.p1_cents < (1 << 63) else object)


def lower_envelope(sellers: Sequence[tuple[str, PriceCurve]], q_max: int) -> Envelope:
    """Compute the best single-seller price for every quantity 1..q_max.

    The sellers' price tables are stacked in id order and reduced with one
    argmin per block of quantities; argmin keeps the first minimum, so
    price ties go to the lowest id.  Prices are int64 when every table is,
    and Python ints otherwise.
    """
    if not sellers:
        raise ValueError("envelope needs at least one seller")
    _check_quantity(q_max)
    ordered = sorted(sellers, key=lambda pair: pair[0])
    ids = [sid for sid, _ in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("seller ids must be unique")

    tables = price_tables([curve for _, curve in ordered], q_max)
    step = max(1, _FILL_BLOCK_CELLS // len(tables))
    pick: list[int] = []
    best: list[Cents] = []
    for lo in range(1, q_max + 1, step):
        hi = min(lo + step, q_max + 1)
        stacked = np.stack([table[lo:hi] for table in tables])
        cheapest = stacked.argmin(axis=0)
        pick += cheapest.tolist()
        best += stacked[cheapest, np.arange(hi - lo)].tolist()
    points = tuple(
        EnvelopePoint(q=q, seller_id=ids[i], price_cents=price)
        for q, i, price in zip(range(1, q_max + 1), pick, best)
    )

    segments: list[EnvelopeSegment] = []
    start = 1
    for prev, nxt in zip(points, points[1:]):
        if nxt.seller_id != prev.seller_id:
            segments.append(EnvelopeSegment(start, prev.q, prev.seller_id))
            start = nxt.q
    segments.append(EnvelopeSegment(start, points[-1].q, points[-1].seller_id))
    return Envelope(points=points, segments=tuple(segments))
