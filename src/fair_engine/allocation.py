"""Split an aggregated demand across capacity-limited sellers.

Given seller price curves and stock limits, the engine answers: how should a
demand of q units be divided so the resulting fair unit price (the quantity-
weighted mean of each seller's price at its own allocated volume) is as low
as possible?

Two solvers are provided.  The greedy fill ranks sellers by the unit price
they offer on the portion they can cover and drains them in rank order; it
is fast and mirrors how a human would shop, but it is a heuristic.  The
exact solver is a dynamic program over sellers with remaining-quantity
state; total cost is separable per seller but non-convex (the plateau kink
breaks marginal-cost arguments), so enumerating per-seller quantities is the
sound route.  One DP sweep yields optima for every demand 1..q_max at once,
which is what the fair-level price curve needs.

A fair price curve of either method reads each seller's curve as an
integer price table, which the curve memoizes, and prices every demand from
one sweep over those tables: the lower envelope (`lower_envelope`) for
both methods when no seller has a stock limit, and otherwise the DP for
the exact method and a blocked rank-and-fill for the greedy one.  A
point holds a demand's integer total cost and unit price; the curve reads
a split from its one source: an exact DP curve walks its choice arrays
back once for every demand, an envelope curve takes the envelope's
seller, and a greedy curve calls `greedy_allocation`, the reference for a
single greedy demand.  A curve's `summaries()` gives every point's split
as text, with no `Allocation` built on an exact or envelope curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, groupby, islice, takewhile
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .curves import PriceCurve, _check_quantity, lower_envelope
from .geo import ORIGIN, Position
from .money import Cents

__all__ = [
    "Seller",
    "AllocationEntry",
    "Allocation",
    "FairPricePoint",
    "FairPriceCurve",
    "OptimalPoint",
    "InfeasibleDemandError",
    "greedy_allocation",
    "optimal_allocation",
    "fair_price_curve",
    "optimal_demand",
    "total_availability",
]

class InfeasibleDemandError(Exception):
    """Demand exceeds what the seller set can supply."""

    def __init__(self, demand: int, available: int):
        self.demand = demand
        self.available = available
        self.shortfall = demand - available
        super().__init__(
            f"demand {demand} exceeds total availability {available} "
            f"(short by {self.shortfall})"
        )


@dataclass(frozen=True)
class Seller:
    """A supplier: price curve, stock limit (None = unlimited), position."""

    id: str
    curve: PriceCurve
    availability: int | None = None
    position: Position = ORIGIN

    def __post_init__(self) -> None:
        if self.availability is not None and self.availability < 0:
            raise ValueError(f"seller {self.id}: availability must be >= 0")

    def capacity(self, cap: int) -> int:
        """Units this seller can supply, clipped to `cap`."""
        if self.availability is None:
            return cap
        return min(self.availability, cap)


def total_availability(sellers: Sequence[Seller]) -> int | None:
    """Sum of availabilities; None when any seller is unlimited."""
    total = 0
    for seller in sellers:
        if seller.availability is None:
            return None
        total += seller.availability
    return total


@dataclass(frozen=True)
class AllocationEntry:
    seller_id: str
    quantity: int
    unit_price_cents: Cents

    @property
    def cost_cents(self) -> Cents:
        return self.quantity * self.unit_price_cents


@dataclass(frozen=True)
class Allocation:
    """Per-seller quantities covering one demand, with the resulting price."""

    entries: tuple[AllocationEntry, ...]
    total_quantity: int
    total_cost_cents: Cents
    fair_unit_price_cents: Fraction

    def summary(self) -> str:
        return _summary((e.seller_id, e.quantity) for e in self.entries)


def _summary(fills: Iterable[tuple[str, int]]) -> str:
    """The `id:qty+id:qty` text of a split, (seller id, quantity) in id order."""
    return "+".join(f"{seller_id}:{quantity}" for seller_id, quantity in fills)


def _build_allocation(
    fills: Iterable[tuple[str, int, Cents]], q: int, cost: Cents
) -> Allocation:
    """The one constructor of an `Allocation`.

    `fills` are (seller id, quantity, unit price) in seller-id order, each
    quantity positive, together covering q units at total cost `cost`, so
    the fair unit price is cost / q.
    """
    return Allocation(
        entries=tuple(AllocationEntry(*fill) for fill in fills),
        total_quantity=q,
        total_cost_cents=cost,
        fair_unit_price_cents=Fraction(cost, q),
    )


def _sellers_by_id(sellers: Sequence[Seller]) -> dict[str, Seller]:
    by_id: dict[str, Seller] = {}
    for seller in sellers:
        if seller.id in by_id:
            raise ValueError(f"duplicate seller id {seller.id}")
        by_id[seller.id] = seller
    return by_id


def _check_request(sellers: Sequence[Seller], q: int) -> None:
    """Reject a bad demand, an empty or ambiguous seller set, or a shortfall."""
    _check_quantity(q)
    if not sellers:
        raise ValueError("no sellers to allocate from")
    _sellers_by_id(sellers)
    available = total_availability(sellers)
    if available is not None and q > available:
        raise InfeasibleDemandError(q, available)


def greedy_allocation(sellers: Sequence[Seller], q: int) -> Allocation:
    """Fill the demand from the best-ranked seller down until covered.

    Sellers are ranked by the unit price each offers on the portion it can
    cover, i.e. its curve evaluated at min(q, availability), ascending, ties
    by seller id.  Each seller in rank order is drained to capacity until
    the demand is met.
    """
    _check_request(sellers, q)

    usable = [s for s in sellers if s.capacity(q) > 0]
    ranked = sorted(usable, key=lambda s: (s.curve.price_at(s.capacity(q)), s.id))
    remaining = q
    fills: list[tuple[str, int, Cents]] = []
    for seller in ranked:
        if remaining == 0:
            break
        take = min(seller.capacity(q), remaining)
        fills.append((seller.id, take, seller.curve.price_at(take)))
        remaining -= take
    fills.sort()
    return _build_allocation(fills, q, sum(x * p for _, x, p in fills))


_INF = 1 << 62
_DP_BLOCK_CELLS = 1 << 18  # candidate cells per numpy step, so memory stays O(q)
_DP_CELL_BUDGET = 1 << 30  # most cells one sweep may fill; n=200 unlimited q=2000 is 8.0e8


def _price_tables(
    ordered: Sequence[Seller], q_cap: int, dtype: object = np.int64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each seller's unit prices for x = 0..capacity, read once per curve build.

    The tables are laid end to end in one array: seller i's price for x is
    flat[offsets[i] + x], for x = 0..capacities[i].  The array is filled
    from each curve's memoized table, with no list copy beside it.
    """
    caps = np.array([s.capacity(q_cap) for s in ordered], dtype=np.int64)
    offsets = np.cumsum(caps + 1) - (caps + 1)
    tables = (islice(s.curve._memo_table(c), c + 1) for s, c in zip(ordered, caps.tolist()))
    flat = np.fromiter(chain.from_iterable(tables), dtype, int(caps.sum()) + len(ordered))
    return flat, caps, offsets


def _greedy_costs(sellers: Sequence[Seller], q_cap: int) -> list[Cents]:
    """Total cost of the greedy fill for every demand 1..q_cap, in one sweep.

    The sweep reads the price tables of the sellers with stock, in id order,
    laid end to end.  At demand q a seller covers C = min(q, capacity); a
    stable argsort on the price at C ranks the sellers, so ties go to the
    lower id as in `greedy_allocation`; a cumsum of the ranked C, clipped to
    each C, gives the fills; the cost is the sum of take * price(take).
    Demands come in blocks of at most _DP_BLOCK_CELLS (demand, seller)
    cells.  The arithmetic is int64 when sum(capacity * price(1)) fits and
    Python ints otherwise, so no cost scale is refused.
    """
    usable = sorted((s for s in sellers if s.capacity(q_cap) > 0), key=lambda s: s.id)
    if not usable:
        return []
    cost_bound = sum(s.capacity(q_cap) * s.curve.price_at(1) for s in usable)
    dtype = np.int64 if cost_bound < (1 << 63) else object
    flat, caps, offsets = _price_tables(usable, q_cap, dtype)
    step = max(1, _DP_BLOCK_CELLS // len(usable))
    costs: list[Cents] = []
    for lo in range(1, q_cap + 1, step):
        q = np.arange(lo, min(lo + step, q_cap + 1), dtype=np.int64)[:, None]
        rank = np.argsort(flat[offsets + np.minimum(q, caps)], axis=1, kind="stable")
        cover = np.minimum(q, caps[rank])
        take = np.clip(q - (np.cumsum(cover, axis=1) - cover), 0, cover)
        costs += (take * flat[offsets[rank] + take]).sum(axis=1).tolist()
    return costs


def _check_exact_scale(sellers: Sequence[Seller], q_max: int) -> None:
    """Refuse an exact curve to q_max over the DP cell budget or the cost scale.

    A DP sweep fills sum(capacity) * (q_max + 1) cells; one over the budget
    is refused before any price is read.  Packed int64 keys need
    sum(capacity * price(1)) * (sellers + 1) below 2**60.  Both refusals
    hold whichever path then prices the curve.
    """
    cells = sum(s.capacity(q_max) for s in sellers) * (q_max + 1)
    if cells > _DP_CELL_BUDGET:
        raise ValueError(
            f"demand {q_max} needs {cells} DP cells, over the exact solver's "
            f"budget of {_DP_CELL_BUDGET}"
        )
    cost_bound = sum(s.capacity(q_max) * s.curve.price_at(1) for s in sellers)
    if cost_bound * (len(sellers) + 1) >= (1 << 60):  # keep packed int64 keys overflow-free
        raise ValueError("cost scale too large for the exact solver")


def _dp_tables(
    sellers: Sequence[Seller], q_max: int
) -> tuple[np.ndarray, list[np.ndarray], list[Seller], int, np.ndarray, np.ndarray]:
    """Min-cost DP over sellers for every demand 0..q_max in one sweep.

    State key packs (total cost in cents, sellers used) as cost*width+count
    so one int64 comparison applies both criteria.  Each seller's
    candidates key[q - x] + delta(x), x = 0..capacity, are laid out as a
    (q, x) block and reduced with argmin, which keeps the smallest x among
    equal keys; a later block of x replaces the running best only on strict
    improvement.  That is the tie-break of scanning x upward: cheapest
    first, then fewest sellers, then quantity pushed toward the
    lexicographically smallest seller ids.  A candidate built on an
    unreachable key stays above _INF, so it never wins.

    A seller with no stock gets a shared read-only choice array of zeros
    and no blocks.  The caller has passed `_check_exact_scale`.

    Returns the final keys, one choice array per seller in id order, the
    ordered sellers, the key width, and the price tables the sweep read as
    one flat int64 array with each seller's offset into it (see
    `_price_tables`); every price fits, as the cost-scale check bounds them.
    """
    ordered = sorted(sellers, key=lambda s: s.id)
    width = len(ordered) + 1
    key = np.full(q_max + 1, _INF, dtype=np.int64)
    key[0] = 0
    rows = np.arange(q_max + 1)
    step = max(1, _DP_BLOCK_CELLS // (q_max + 1))
    no_stock = np.zeros(q_max + 1, dtype=np.int32)  # every seller without stock shares it
    no_stock.flags.writeable = False
    prices, caps, offsets = _price_tables(ordered, q_max)
    # one candidate buffer for every block, so only one block is held at a time
    block = np.empty((q_max + 1, min(step, int(caps.max()) + 1)), dtype=np.int64)
    choices: list[np.ndarray] = []
    for x_max, offset in zip(caps.tolist(), offsets.tolist()):
        if x_max == 0:  # a seller with no stock leaves every key as it was
            choices.append(no_stock)
            continue
        x = np.arange(x_max + 1, dtype=np.int64)
        delta = x * prices[offset : offset + x_max + 1] * width + 1
        delta[0] = 0  # x = 0 uses no seller
        padded = np.full(x_max + q_max + 1, _INF, dtype=np.int64)
        padded[x_max:] = key  # padded[x_max + i] is key[i], _INF for i < 0
        stride = padded.strides[0]
        for lo in range(0, x_max + 1, step):
            hi = min(lo + step, x_max + 1)
            # shifted[q, k] is key[q - x] for x = lo + k
            shifted = np.lib.stride_tricks.as_strided(
                padded[x_max - lo :],
                shape=(q_max + 1, hi - lo),
                strides=(stride, -stride),
                writeable=False,
            )
            cand = np.add(shifted, delta[lo:hi], out=block[:, : hi - lo])
            pick = cand.argmin(axis=1)
            value = cand[rows, pick]
            if lo == 0:
                best, choice = value, pick.astype(np.int32)
            else:
                improves = value < best
                best[improves] = value[improves]
                choice[improves] = pick[improves] + lo
        key = best
        choices.append(choice)
    return key, choices, ordered, width, prices, offsets


def _exact_splits(
    choices: list[np.ndarray],
    ordered: Sequence[Seller],
    prices: np.ndarray,
    offsets: np.ndarray,
    n: int,
) -> tuple[Callable[[int, Cents], Allocation], Callable[[], list[str]]]:
    """The split source and the summaries of one exact curve, from one backward pass.

    The first read walks the choice arrays of the sellers with stock once
    for all demands 0..n together, sellers in reverse id order, each step
    one gather x = choice[remaining] and remaining -= x.  The walk is
    memoized as a (sellers, n + 1) int32 matrix, one column per demand.  The
    split of demand q is column q's nonzero entries, in id order, priced
    from the tables the DP sweep read; the summaries take every column's
    nonzero entries in one pass, demand by demand, and build no `Allocation`.
    """
    stocked = [i for i, seller in enumerate(ordered) if seller.availability != 0]
    stocked_choices = [choices[i] for i in stocked]
    ids = [ordered[i].id for i in stocked]
    stocked_offsets = offsets[stocked]

    @cache
    def walk() -> np.ndarray:
        quantities = np.empty((len(stocked_choices), n + 1), dtype=np.int32)
        remaining = np.arange(n + 1, dtype=np.intp)  # the index type: no cast per gather
        for choice, x in zip(reversed(stocked_choices), quantities[::-1]):
            x[:] = choice[remaining]
            remaining -= x
        assert not remaining.any(), "the DP choices must cover every demand"
        return quantities

    def split(q: int, cost: Cents) -> Allocation:
        column = walk()[:, q]
        used = column.nonzero()[0]
        x = column[used]
        fills = zip(
            [ids[j] for j in used.tolist()],
            x.tolist(),
            prices[stocked_offsets[used] + x].tolist(),
        )
        return _build_allocation(fills, q, cost)

    def summaries() -> list[str]:
        by_demand = walk()[:, 1:].T  # row q - 1 holds demand q's split
        demand, used = by_demand.nonzero()  # demand-major, ids ascending within a demand
        quantities = by_demand[demand, used].tolist()
        fills = zip(demand.tolist(), [ids[j] for j in used.tolist()], quantities)
        # every demand 1..n has a split, so each is one group, in order
        return [_summary(f[1:] for f in group) for _, group in groupby(fills, itemgetter(0))]

    return split, summaries


def optimal_allocation(sellers: Sequence[Seller], q: int) -> Allocation:
    """Minimum-total-cost split of q units across the sellers.

    Exact dynamic program, O(n * q * max availability), or O(n * q) when no
    seller has a stock limit; ties resolved toward fewest sellers used, then
    lexicographically smallest seller ids.  The
    split is point q of the exact fair price curve: a point does not depend
    on how far the curve reaches.
    """
    _check_request(sellers, q)
    return fair_price_curve(sellers, q).allocation(q)


class FairPricePoint(NamedTuple):
    """One demand on a fair price curve: its least total cost and unit price."""

    q: int
    cost_cents: Cents
    price_cents: Fraction  # cost_cents / q, stored since a fair reads it on every join


@dataclass(frozen=True)
class FairPriceCurve:
    """Fair-level unit price for each feasible aggregated demand.

    Defined for 1 <= q <= q_feasible_max (None marks unlimited supply, in
    which case the sweep stops at the requested q_max).  Unlike a single
    seller's curve this one may be non-monotone: once the cheapest seller's
    stock is exhausted the next allocation mixes in a pricier supplier.
    `_split(q, cost)`, the curve's one split source, builds the `Allocation`
    behind demand q: the `_exact_splits` walk, the envelope, or the greedy fill.
    """

    points: tuple[FairPricePoint, ...]
    q_feasible_max: int | None
    _split: Callable[[int, Cents], Allocation] = field(compare=False, repr=False)
    _summaries: Callable[[], list[str]] | None = field(default=None, compare=False, repr=False)

    def allocation(self, q: int) -> Allocation:
        """The split behind demand q, built afresh from the curve's split source."""
        self.price_at(q)  # refuses a demand off the curve
        return self._split(q, self.points[q - 1].cost_cents)

    def summaries(self) -> list[str]:
        """Every point's `Allocation.summary()` text in demand order, in one pass.

        An exact DP curve reads its walked splits and an envelope curve its
        one seller per demand, so neither builds an `Allocation`; a greedy
        curve reads each demand's allocation.
        """
        if self._summaries is None:
            return [self.allocation(point.q).summary() for point in self.points]
        return self._summaries()

    def price_at(self, q: int) -> Fraction:
        _check_quantity(q)
        if q > len(self.points):
            raise ValueError(f"demand {q} beyond curve range 1..{len(self.points)}")
        return self.points[q - 1].price_cents

    def is_monotone_non_increasing(self) -> bool:
        return all(
            b.cost_cents * a.q <= a.cost_cents * b.q
            for a, b in zip(self.points, self.points[1:])
        )


def fair_price_curve(
    sellers: Sequence[Seller],
    q_max: int,
    method: str = "exact",
) -> FairPriceCurve:
    """Sweep demands 1..q_max and record the total cost and price per demand.

    Each method prices every demand from one sweep over the sellers' price
    tables.  When no seller has a stock limit both methods read
    `lower_envelope`; otherwise the exact method runs the DP and the greedy
    one `_greedy_costs`.  The curve builds a demand's `Allocation` only when
    `FairPriceCurve.allocation` reads it: the first read on an exact DP
    curve walks the choices back for every demand at once.
    """
    _check_quantity(q_max)
    if not sellers:
        raise ValueError("no sellers to build a price curve from")
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown allocation method {method!r}")
    _sellers_by_id(sellers)

    feasible_max = total_availability(sellers)
    q_cap = q_max if feasible_max is None else min(q_max, feasible_max)

    summaries: Callable[[], list[str]] | None = None
    if method == "exact":
        _check_exact_scale(sellers, q_cap)
    if all(s.availability is None for s in sellers):
        # Without stock limits one seller always suffices: prices are
        # non-increasing, so a*pA(a) + b*pB(b) >= (a+b)*min(pA(a+b),
        # pB(a+b)), and a split uses more sellers.  Among the cheapest,
        # the DP's tie-break and the envelope both pick the lowest id, and
        # the greedy fill takes every unit from that same seller.
        best = lower_envelope([(s.id, s.curve) for s in sellers], q_cap).points
        costs = [p.q * p.price_cents for p in best]
        split = lambda q, cost: _build_allocation(
            [(best[q - 1].seller_id, q, best[q - 1].price_cents)], q, cost
        )
        summaries = lambda: [_summary([(p.seller_id, p.q)]) for p in best]
    elif method == "greedy":
        market = tuple(sellers)
        costs = _greedy_costs(market, q_cap)
        split = lambda q, cost: greedy_allocation(market, q)
    else:
        key, choices, ordered, width, prices, offsets = _dp_tables(sellers, q_cap)
        # packed is cost*width + sellers used, so the cost is its quotient;
        # the curve ends before the first demand no split reaches
        costs = [packed // width for packed in takewhile(_INF.__gt__, key[1:].tolist())]
        split, summaries = _exact_splits(choices, ordered, prices, offsets, len(costs))
    points = tuple(
        FairPricePoint(q, cost, Fraction(cost, q)) for q, cost in enumerate(costs, start=1)
    )
    return FairPriceCurve(points, feasible_max, split, summaries)


@dataclass(frozen=True)
class OptimalPoint:
    """Global minimum of a fair price curve; ties go to the lowest demand."""

    q_star: int
    z_star_cents: Fraction


def optimal_demand(curve: FairPriceCurve) -> OptimalPoint:
    """Scan for the least cost / q, cross-multiplied; on ties keep the smallest demand."""
    if not curve.points:
        raise ValueError("fair price curve is empty")
    best = curve.points[0]
    for point in curve.points[1:]:
        if point.cost_cents * best.q < best.cost_cents * point.q:
            best = point
    return OptimalPoint(q_star=best.q, z_star_cents=best.price_cents)
