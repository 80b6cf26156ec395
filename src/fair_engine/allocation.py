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

A fair price curve of either method costs every demand from one sweep
over the sellers' memoized integer price tables: the lower envelope for
both methods when no seller with stock has a limit, else the DP or a blocked
rank-and-fill.  The curve keeps only those integer costs; a price, a point
record or a split is made when it is read.  The splits of a demand range
are one fills table: the DP choice columns walked back, a slice of the
envelope's sellers, or the greedy sweep run again from the range's start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, takewhile
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .curves import PriceCurve, _check_quantity, lower_envelope, price_tables
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


class AllocationEntry(NamedTuple):
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
        """The `id:qty+id:qty` text of the split, in seller-id order."""
        return "+".join(f"{e.seller_id}:{e.quantity}" for e in self.entries)


# the splits of a demand range in one table, as `FairPriceCurve` describes
Fills = tuple[Sequence[int], list[str], list[int], list[Cents]]


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


def _stocked(sellers: Sequence[Seller]) -> list[Seller]:
    """The sellers with stock in id order; an empty set or a repeated id is refused."""
    if not sellers:
        raise ValueError("no sellers to allocate from")
    seen: set[str] = set()
    for seller in sellers:
        if seller.id in seen:
            raise ValueError(f"duplicate seller id {seller.id}")
        seen.add(seller.id)
    return sorted((s for s in sellers if s.availability != 0), key=lambda s: s.id)


def _check_request(sellers: Sequence[Seller], q: int) -> list[Seller]:
    """Reject a bad demand, an empty or ambiguous seller set, or a shortfall; give `_stocked`."""
    _check_quantity(q)
    stocked = _stocked(sellers)
    available = total_availability(sellers)
    if available is not None and q > available:
        raise InfeasibleDemandError(q, available)
    return stocked


def greedy_allocation(sellers: Sequence[Seller], q: int) -> Allocation:
    """Fill the demand from the best-ranked seller down until covered.

    Sellers are ranked by the unit price each offers on the portion it can
    cover, i.e. its curve evaluated at min(q, availability), ascending, ties
    by seller id.  Each seller in rank order is drained to capacity until
    the demand is met.
    """
    stocked = _check_request(sellers, q)
    ranked = sorted(stocked, key=lambda s: (s.curve.price_at(s.capacity(q)), s.id))
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
    flat[offsets[i] + x], for x = 0..capacities[i].  The array joins slices
    of each curve's `price_tables` table.
    """
    caps = [s.capacity(q_cap) for s in ordered]
    tables = price_tables([s.curve for s in ordered], caps)
    flat = np.concatenate([table[: c + 1] for table, c in zip(tables, caps)], dtype=dtype)
    caps = np.array(caps, dtype=np.int64)
    return flat, caps, np.cumsum(caps + 1) - (caps + 1)


def _greedy_takes(
    flat: np.ndarray, caps: np.ndarray, offsets: np.ndarray, lo: int, hi: int, step: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The greedy fill of demands lo..hi as (rank, take) blocks of `step` demands.

    At demand q a seller covers C = min(q, capacity); a stable argsort on
    the price at C ranks the sellers, so ties go to the lower id as in
    `greedy_allocation`; a cumsum of the ranked C, clipped to each C, gives
    take, the units drawn from each seller in rank order.
    """
    for start in range(lo, hi + 1, step):
        q = np.arange(start, min(start + step, hi + 1), dtype=np.int64)[:, None]
        rank = np.argsort(flat[offsets + np.minimum(q, caps)], axis=1, kind="stable")
        cover = np.minimum(q, caps[rank])
        yield rank, np.clip(q - (np.cumsum(cover, axis=1) - cover), 0, cover)


def _fills_of(
    blocks: Iterable[np.ndarray], ids: Sequence[str], flat: np.ndarray, offsets: np.ndarray
) -> Fills:
    """The fills of blocks of demand rows, each row the units per seller in id order."""
    names = np.array(ids, dtype=object)
    starts, fill_ids, quantities, prices = [0], [], [], []
    for block in blocks:
        filled = block != 0
        demand, used = filled.nonzero()  # demand-major, ids ascending within a demand
        x = block[demand, used]
        starts += (np.cumsum(np.count_nonzero(filled, axis=1)) + starts[-1]).tolist()
        fill_ids += names[used].tolist()
        quantities += x.tolist()
        prices += flat[offsets[used] + x].tolist()
    return starts, fill_ids, quantities, prices


def _greedy_costs(
    sellers: Sequence[Seller], q_cap: int
) -> tuple[list[Cents], Callable[[int, int], Fills]]:
    """Total cost of the greedy fill for every demand 1..q_cap, and its fills.

    The sweep reads the price tables of the `_stocked` sellers, in id order,
    laid end to end, and runs `_greedy_takes` over blocks of at most
    _DP_BLOCK_CELLS (demand, seller) cells; a demand's cost is the sum of
    take * price(take).  The arithmetic is int64 when sum(capacity *
    price(1)) fits and Python ints otherwise, so no cost scale is refused.
    The fills of demands lo..hi run the same sweep again from lo, so a
    curve keeps only its price tables, not a take per (demand, seller).
    """
    cost_bound = sum(s.capacity(q_cap) * s.curve.price_at(1) for s in sellers)
    dtype = np.int64 if cost_bound < (1 << 63) else object
    flat, caps, offsets = _price_tables(sellers, q_cap, dtype)
    step = max(1, _DP_BLOCK_CELLS // len(sellers))
    costs: list[Cents] = []
    for rank, take in _greedy_takes(flat, caps, offsets, 1, q_cap, step):
        costs += (take * flat[offsets[rank] + take]).sum(axis=1).tolist()

    def fills(lo: int, hi: int) -> Fills:
        def by_id() -> Iterator[np.ndarray]:  # each take put back in id order
            for rank, take in _greedy_takes(flat, caps, offsets, lo, hi, step):
                block = np.empty_like(take)
                np.put_along_axis(block, rank, take, axis=1)
                yield block

        return _fills_of(by_id(), [s.id for s in sellers], flat, offsets)

    return costs, fills


def _check_exact_scale(sellers: Sequence[Seller], q_max: int) -> None:
    """Refuse an exact curve to q_max over the DP cell budget or the cost scale.

    `sellers` are the `_stocked` ones, the sellers a DP sweep sees.  The
    sweep fills at most sum(capacity) * (q_max + 1) cells; one over the
    budget is refused before any price is read.  Packed int64 keys need
    sum(capacity * price(1)) * (sellers + 1), the key width, below 2**60.
    Both refusals hold whichever path then prices the curve.
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
    so one int64 comparison applies both criteria.  The keys live reversed
    in one padded buffer, flipped[q_max - i] = key[i] with _INF past q_max
    for i < 0, so a seller's candidates for demand q, key[q - x] + delta(x),
    are a run of it read upward plus delta(x) = x * price(x) * width + 1 (0
    at x = 0), computed for every seller at once.  They are written as
    contiguous (demand, x) rows and reduced with argmin, which keeps the
    smallest x among equal keys; a later block of x replaces the running
    best only on strict improvement.  That is the tie-break of scanning x
    upward: cheapest first, then fewest sellers, then quantity pushed
    toward the lexicographically smallest seller ids.

    After sellers 0..i the rows stop at min(q_max, their summed capacity):
    a demand above is unreachable and keeps key _INF and choice 0, as its
    candidates, _INF + delta, would give it.  A seller without stock gets a
    choice array of zeros, but a curve build passes only `_stocked` sellers.
    The caller has passed `_check_exact_scale`, so no key overflows.

    Returns the final keys, one choice array per seller in id order, the
    ordered sellers, the key width, and the price tables the sweep read as
    one flat int64 array with each seller's offset into it (see
    `_price_tables`); every price fits, as the cost-scale check bounds them.
    """
    ordered = sorted(sellers, key=lambda s: s.id)
    width = len(ordered) + 1
    prices, caps, offsets = _price_tables(ordered, q_max)
    deltas = (np.arange(len(prices)) - np.repeat(offsets, caps + 1)) * prices * width + 1
    deltas[offsets] = 0  # x = 0 uses no seller
    step = max(1, _DP_BLOCK_CELLS // (q_max + 1))
    cap = int(caps.max())
    span = min(step, cap + 1)
    flipped = np.full(q_max + cap + span, _INF, dtype=np.int64)
    flipped[q_max] = 0
    # windows[j] is flipped[j : j + span], so row q of a block starts at j = q_max - q + lo
    windows = np.lib.stride_tricks.sliding_window_view(flipped, span)
    # one candidate buffer for every block, so only one block is held at a time
    cells = np.empty((q_max + 1) * span, dtype=np.int64)
    choices: list[np.ndarray] = []
    top = 0
    for x_max, offset in zip(caps.tolist(), offsets.tolist()):
        top = min(q_max, top + x_max)  # the highest reachable demand
        rows = top + 1
        choice = np.zeros(q_max + 1, dtype=np.int32)
        for lo in range(0, x_max + 1, step):
            w = min(step, x_max + 1 - lo)
            shifted = windows[q_max - top + lo : q_max + lo + 1, :w][::-1]
            cand = cells[: rows * w].reshape(rows, w)
            np.add(shifted, deltas[offset + lo : offset + lo + w], out=cand)
            pick = cand.argmin(axis=1)
            value = cells.take(pick + np.arange(0, rows * w, w))
            if lo == 0:
                best = value
                choice[:rows] = pick
            else:
                improves = value < best
                best[improves] = value[improves]
                choice[:rows][improves] = pick[improves] + lo
        flipped[q_max - top : q_max + 1] = best[::-1]
        choices.append(choice)
    return flipped[q_max::-1], choices, ordered, width, prices, offsets


def _exact_fills(
    choices: list[np.ndarray], ordered: Sequence[Seller], prices: np.ndarray, offsets: np.ndarray
) -> Callable[[int, int], Fills]:
    """The fills of demands lo..hi of one exact curve, from one backward pass over its DP choices.

    The walk takes the choice columns lo..hi of the `_stocked` sellers
    together, sellers in reverse id order, each step one gather x =
    choice[remaining] and remaining -= x, into a (sellers, hi - lo + 1)
    matrix whose columns are the demands' quantities.  One demand alone
    (lo == hi, a split read) takes the same steps on Python ints.
    """
    ids = [seller.id for seller in ordered]
    starts = offsets.tolist()

    def fills(lo: int, hi: int) -> Fills:
        if lo == hi:  # one demand: a walk in scalars, with no numpy call per seller
            remaining, taken = lo, []
            for i in range(len(choices) - 1, -1, -1):
                x = choices[i].item(remaining)
                if x:
                    taken.append((i, x))
                    remaining -= x
            assert remaining == 0, "the DP choices must cover every demand"
            taken.reverse()
            return (
                [0, len(taken)], [ids[i] for i, _ in taken], [x for _, x in taken],
                [prices.item(starts[i] + x) for i, x in taken],
            )
        walked = np.empty((len(choices), hi - lo + 1), dtype=np.int32)
        remaining = np.arange(lo, hi + 1, dtype=np.intp)  # the index type: no cast per gather
        for choice, x in zip(reversed(choices), walked[::-1]):
            x[:] = choice[remaining]
            remaining -= x
        assert not remaining.any(), "the DP choices must cover every demand"
        return _fills_of([walked.T], ids, prices, offsets)  # row i is demand lo + i

    return fills


def optimal_allocation(sellers: Sequence[Seller], q: int) -> Allocation:
    """Minimum-total-cost split of q units across the sellers.

    Exact dynamic program, O(n * q * max availability), or O(n * q) when no
    seller has a stock limit; ties resolved toward fewest sellers used, then
    lexicographically smallest seller ids.  The split is point q of the exact
    fair price curve: a point does not depend on how far the curve reaches.
    """
    _check_request(sellers, q)
    return fair_price_curve(sellers, q).allocation(q)


class FairPricePoint(NamedTuple):
    """One demand on a fair price curve: its least total cost and unit price."""

    q: int
    cost_cents: Cents
    price_cents: Fraction  # cost_cents / q


class _Points(Sequence[FairPricePoint]):
    """A curve's points, each record made when indexed."""

    def __init__(self, curve: FairPriceCurve):
        self._curve = curve

    def __len__(self) -> int:
        return len(self._curve.costs)

    def __getitem__(self, index: int) -> FairPricePoint:
        q = range(1, len(self) + 1)[index]  # an index off the curve raises IndexError
        return FairPricePoint(q, self._curve.costs[q - 1], self._curve.price_at(q))


@dataclass(frozen=True)
class FairPriceCurve:
    """Fair-level unit price for each feasible aggregated demand.

    Defined for 1 <= q <= q_feasible_max (None marks unlimited supply, in
    which case the sweep stops at the requested q_max).  Unlike a single
    seller's curve this one may be non-monotone: once the cheapest seller's
    stock is exhausted the next allocation mixes in a pricier supplier.

    The curve holds only costs[q - 1], the least total cost of demand q in
    integer cents.  `price_at(q)` makes cost / q on its first read of q and
    keeps it; `points` makes a record when indexed.  `_fills(lo, hi)` gives
    the splits of demands lo..hi as one table (starts, ids, quantities,
    prices): the fills run demand by demand, ids ascending within a demand,
    and demand lo + i's are entries starts[i] to starts[i + 1].  A split
    read asks for its demand alone; `summaries()` asks for every demand and
    keeps that table.
    """

    costs: tuple[Cents, ...]
    q_feasible_max: int | None
    _fills: Callable[[int, int], Fills] = field(compare=False, repr=False)
    _prices: dict[int, Fraction] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def points(self) -> Sequence[FairPricePoint]:
        return _Points(self)

    def allocation(self, q: int) -> Allocation:
        """The split behind demand q, made afresh from the fills of q alone."""
        self._check_demand(q)
        _, ids, quantities, prices = self._fills(q, q)
        return _build_allocation(zip(ids, quantities, prices), q, self.costs[q - 1])

    @cached_property
    def _every_fill(self) -> Fills:
        return self._fills(1, len(self.costs))

    def summaries(self) -> list[str]:
        """Every point's `Allocation.summary()` text in demand order, with no `Allocation` built."""
        starts, ids, quantities, _ = self._every_fill
        text = [f"{seller_id}:{x}" for seller_id, x in zip(ids, quantities)]
        return ["+".join(text[lo:hi]) for lo, hi in zip(starts, starts[1:])]

    def _check_demand(self, q: int) -> None:
        _check_quantity(q)
        if q > len(self.costs):
            raise ValueError(f"demand {q} beyond curve range 1..{len(self.costs)}")

    def price_at(self, q: int) -> Fraction:
        """cost / q, made on the first read of demand q and kept for later reads."""
        # only a checked demand is kept, and a plain int cannot be a bool or a float equal to one
        price = self._prices.get(q) if type(q) is int else None
        if price is None:
            self._check_demand(q)
            price = self._prices[q] = Fraction(self.costs[q - 1], q)
        return price

    def is_monotone_non_increasing(self) -> bool:
        """Each price at most the one before, cost_{q+1} * q <= cost_q * (q + 1)."""
        costs = self.costs
        return all(b * q <= a * (q + 1) for q, a, b in zip(count(1), costs, costs[1:]))


def fair_price_curve(
    sellers: Sequence[Seller],
    q_max: int,
    method: str = "exact",
) -> FairPriceCurve:
    """Sweep demands 1..q_max and record the least total cost of each demand.

    Every sweep sees the `_stocked` sellers; with none the curve is empty.
    When none of them has a stock limit both methods read `lower_envelope`;
    otherwise the exact method runs the DP and the greedy one
    `_greedy_costs`.  The curve keeps the costs and a function that gives
    the fills of a demand range when a split is read.
    """
    _check_quantity(q_max)
    if method not in ("exact", "greedy"):
        raise ValueError(f"unknown allocation method {method!r}")
    stocked = _stocked(sellers)

    feasible_max = total_availability(sellers)
    q_cap = q_max if feasible_max is None else min(q_max, feasible_max)

    if method == "exact":
        _check_exact_scale(stocked, q_cap)
    if not stocked:  # no demand is feasible
        costs, fills = [], lambda lo, hi: ([0], [], [], [])
    elif all(s.availability is None for s in stocked):
        # Without stock limits one seller always suffices: prices are
        # non-increasing, so a*pA(a) + b*pB(b) >= (a+b)*min(pA(a+b),
        # pB(a+b)), and a split uses more sellers.  Among the cheapest,
        # the DP's tie-break and the envelope both pick the lowest id, and
        # the greedy fill takes every unit from that same seller.
        best = lower_envelope([(s.id, s.curve) for s in stocked], q_cap).points
        costs = [p.q * p.price_cents for p in best]

        def fills(lo: int, hi: int) -> Fills:  # one fill per demand
            part = best[lo - 1 : hi]
            return (
                range(len(part) + 1), [p.seller_id for p in part], [p.q for p in part],
                [p.price_cents for p in part],
            )
    elif method == "greedy":
        costs, fills = _greedy_costs(stocked, q_cap)
    else:
        key, choices, ordered, width, prices, offsets = _dp_tables(stocked, q_cap)
        # packed is cost*width + sellers used, so the cost is its quotient;
        # the curve ends before the first demand no split reaches
        costs = [packed // width for packed in takewhile(_INF.__gt__, key[1:].tolist())]
        fills = _exact_fills(choices, ordered, prices, offsets)
    return FairPriceCurve(tuple(costs), feasible_max, fills)


@dataclass(frozen=True)
class OptimalPoint:
    """Global minimum of a fair price curve; ties go to the lowest demand."""

    q_star: int
    z_star_cents: Fraction


def optimal_demand(curve: FairPriceCurve) -> OptimalPoint:
    """Scan for the least cost / q, cross-multiplied; on ties keep the smallest demand."""
    if not curve.costs:
        raise ValueError("fair price curve is empty")
    best_q, best_cost = 1, curve.costs[0]
    for q, cost in enumerate(curve.costs, start=1):
        if cost * best_q < best_cost * q:
            best_q, best_cost = q, cost
    return OptimalPoint(q_star=best_q, z_star_cents=curve.price_at(best_q))
