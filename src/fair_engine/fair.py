"""Fair lifecycle: opening, buyer joins, price prediction, ending, settlement.

A fair gathers buyer demand for one product against a fixed seller set.  It
runs until either its deadline passes or the aggregated demand reaches the
optimal point of the fair price curve, then settles: the exact allocator
decides what each seller supplies, sellers are paid their own curve price on
their own volume, and buyers share the (margin-inflated) cost with a
fidelity discount that is renormalized so the grand total is preserved
exactly.  Time is injected logical time (plain numbers), never the wall
clock, so every run is reproducible.

Cross-fair stock safety lives in the SellerLedger, which every fair reads
its sellers' remaining stock from and commits its settlement through:
committing is an atomic check-and-commit, so concurrent fairs can never
oversell a seller.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .allocation import (
    Allocation,
    AllocationEntry,
    FairPriceCurve,
    InfeasibleDemandError,
    OptimalPoint,
    Seller,
    fair_price_curve,
    optimal_demand,
    total_availability,
)
from .geo import Position
from .money import Cents, ratio

__all__ = [
    "PaymentTiming",
    "BuyerHistory",
    "BuyerOrder",
    "FairConfig",
    "FairStatus",
    "Fair",
    "PricePrediction",
    "BuyerCharge",
    "Settlement",
    "SellerLedger",
    "LifecycleError",
    "LedgerCapacityError",
    "open_fair",
    "fidelity_score",
    "join_earliness",
]

class LifecycleError(Exception):
    """An operation was applied to a fair in the wrong state."""


class LedgerCapacityError(InfeasibleDemandError):
    """A settlement tried to commit more stock than a seller has left."""

    def __init__(self, seller_id: str, requested: int, available: int):
        super().__init__(requested, available)
        self.seller_id = seller_id
        self.args = (
            f"seller {seller_id}: requested {requested} exceeds remaining "
            f"availability {available} (short by {requested - available})",
        )


class PaymentTiming(Enum):
    BEFORE = "before"
    ON_DELIVERY = "on_delivery"
    AFTER = "after"

    @property
    def earliness(self) -> Fraction:
        """Paying earlier scores higher: before 1, on delivery 1/2, after 0."""
        return _PAYMENT_EARLINESS[self]


_PAYMENT_EARLINESS = {
    PaymentTiming.BEFORE: Fraction(1),
    PaymentTiming.ON_DELIVERY: Fraction(1, 2),
    PaymentTiming.AFTER: Fraction(0),
}


@dataclass(frozen=True)
class BuyerHistory:
    """Past behaviour feeding the fidelity score."""

    purchases: int = 0
    payment_timing: PaymentTiming = PaymentTiming.AFTER
    social_actions: int = 0
    join_earliness: float = 0.0

    def __post_init__(self) -> None:
        if self.purchases < 0 or self.social_actions < 0:
            raise ValueError("history counts must be non-negative")
        if not 0 <= self.join_earliness <= 1:
            raise ValueError("join earliness must be in [0, 1]")


def fidelity_score(history: BuyerHistory | None) -> Fraction:
    """Buyer fidelity in [0, 1] from purchases, payment/join earliness, social actions.

    0.4 * min(purchases, 20)/20 + 0.2 * payment earliness
    + 0.2 * min(social actions, 50)/50 + 0.2 * join earliness.
    Missing history scores 0.
    """
    if history is None:
        return Fraction(0)
    purchases = Fraction(min(history.purchases, 20), 20)
    social = Fraction(min(history.social_actions, 50), 50)
    join = ratio(history.join_earliness)
    return (
        Fraction(2, 5) * purchases
        + Fraction(1, 5) * history.payment_timing.earliness
        + Fraction(1, 5) * social
        + Fraction(1, 5) * join
    )


def join_earliness(join_time: float, opened_at: float, deadline: float) -> float:
    """1 at opening, 0 at the deadline, linear in between, clamped to [0, 1]."""
    if deadline <= opened_at:
        return 0.0
    frac = 1.0 - (join_time - opened_at) / (deadline - opened_at)
    return min(1.0, max(0.0, frac))


@dataclass(frozen=True)
class BuyerOrder:
    """One buyer's stake in a fair."""

    buyer_id: str
    quantity: int
    max_wait: float  # longest the buyer will wait past join_time, seconds
    join_time: float
    payment_timing: PaymentTiming = PaymentTiming.AFTER
    destination: Position | None = None
    fidelity: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.quantity < 1:
            raise ValueError("order quantity must be at least 1")
        if not math.isfinite(self.join_time):
            raise ValueError("join time must be finite")
        if not (math.isfinite(self.max_wait) and self.max_wait > 0):
            raise ValueError("max wait must be positive and finite")
        fid = ratio(self.fidelity)
        if not 0 <= fid <= 1:
            raise ValueError("fidelity must be in [0, 1]")
        object.__setattr__(self, "fidelity", fid)


@dataclass(frozen=True)
class FairConfig:
    max_duration: float = 7 * 24 * 3600.0
    margin: Fraction = Fraction(1, 20)  # 0.05
    fidelity_discount: Fraction = Fraction(1, 25)  # 0.04
    curve_horizon: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_duration) and self.max_duration > 0):
            raise ValueError("max duration must be positive and finite")
        margin = ratio(self.margin)
        discount = ratio(self.fidelity_discount)
        if not 0 <= margin <= 1:
            raise ValueError("margin must be in [0, 1], a markup of at most 100 % of cost")
        if not 0 <= discount < 1:
            raise ValueError("fidelity discount must be in [0, 1)")
        if self.curve_horizon < 1:
            raise ValueError("curve horizon must be at least 1")
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "fidelity_discount", discount)


class FairStatus(Enum):
    RUNNING = "running"
    ENDED_BY_TIME = "ended_by_time"
    ENDED_BY_OPTIMAL_PRICE = "ended_by_optimal_price"
    SETTLED = "settled"


_ENDED = (FairStatus.ENDED_BY_TIME, FairStatus.ENDED_BY_OPTIMAL_PRICE)


@dataclass(frozen=True)
class PricePrediction:
    """What the fair price looks like now and where it is headed."""

    demand: int
    current_price_cents: Fraction | None
    optimal: OptimalPoint
    what_if: tuple[tuple[int, Fraction | None], ...] = ()


@dataclass(frozen=True)
class BuyerCharge:
    buyer_id: str
    quantity: int
    unit_price_cents: Fraction
    total_cents: Fraction


@dataclass(frozen=True)
class Settlement:
    """Final money flows of one fair; buyer totals cover seller payments.

    buyers_total == (1 + margin) * sellers_total exactly, so the manager
    revenue (the difference) is margin * cost and never negative.
    """

    fair_id: str
    allocation: Allocation | None
    buyer_charges: tuple[BuyerCharge, ...]
    seller_payments: tuple[AllocationEntry, ...]
    buyers_total_cents: Fraction
    sellers_total_cents: Cents
    manager_revenue_cents: Fraction
    settled_at: float


class SellerLedger:
    """Cross-fair stock accounting: committed never exceeds availability.

    The ledger holds a fixed seller set, learnt at construction; every read
    or commit naming another seller is refused.  `commit` is an atomic
    check-and-commit under one lock; a failed commit leaves the ledger
    untouched.
    """

    def __init__(self, sellers: Iterable[Seller]):
        self._lock = threading.Lock()
        self._capacity: dict[str, int | None] = {}
        self._committed: dict[str, int] = {}
        for seller in sellers:
            if self._capacity.setdefault(seller.id, seller.availability) != seller.availability:
                raise ValueError(f"seller {seller.id} already registered with different stock")
            self._committed[seller.id] = 0

    def committed(self, seller_id: str) -> int:
        self.available(seller_id)  # refuses a seller the ledger does not hold
        return self._committed[seller_id]

    def available(self, seller_id: str) -> int | None:
        """The seller's stock not yet committed; None when it has no limit."""
        try:
            cap = self._capacity[seller_id]
        except KeyError:
            raise ValueError(f"seller {seller_id} not in ledger") from None
        return None if cap is None else cap - self._committed[seller_id]

    def effective_sellers(self, sellers: Sequence[Seller]) -> list[Seller]:
        """The seller set with availabilities reduced by prior commitments."""
        out = []
        for seller in sellers:
            remaining = self.available(seller.id)
            if remaining != seller.availability:
                seller = replace(seller, availability=remaining)
            out.append(seller)
        return out

    def commit(self, allocation: Allocation) -> None:
        with self._lock:
            for entry in allocation.entries:
                remaining = self.available(entry.seller_id)
                if remaining is not None and entry.quantity > remaining:
                    raise LedgerCapacityError(entry.seller_id, entry.quantity, remaining)
            for entry in allocation.entries:
                self._committed[entry.seller_id] += entry.quantity


def _prediction(
    curve: FairPriceCurve, optimal: OptimalPoint, demand: int, what_if: Sequence[int]
) -> PricePrediction:
    """The price at `demand` and at each what-if demand; None past the curve."""
    n = len(curve.points)
    prices = [curve.price_at(q) if 1 <= q <= n else None for q in (demand, *what_if)]
    return PricePrediction(
        demand=demand, current_price_cents=prices[0], optimal=optimal,
        what_if=tuple(zip(what_if, prices[1:])),
    )


@dataclass
class Fair:
    """Mutable lifecycle state for one product's demand aggregation.

    Single-writer: callers serialize mutations per fair.  Status only moves
    forward (running -> ended -> settled).

    The outlook (fair price curve and its optimum) is cached per stock
    state: keyed on the horizon and the effective sellers' remaining
    stock, which is all the curve depends on for a fixed seller set and
    config.  It is the fair's one source of prices and allocations: a join
    is refused for short stock before any curve is built, then admitted and
    priced from the outlook before it changes the fair, and settlement takes
    the curve's point at the final demand (then drops it).
    """

    fair_id: str
    product_id: str
    sellers: tuple[Seller, ...]
    config: FairConfig
    opened_at: float
    deadline: float
    orders: list[BuyerOrder] = field(default_factory=list)
    status: FairStatus = FairStatus.RUNNING
    settlement: Settlement | None = None
    _cached_outlook: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def demand(self) -> int:
        return sum(order.quantity for order in self.orders)

    def _outlook(
        self, sellers: list[Seller], demand: int
    ) -> tuple[FairPriceCurve, OptimalPoint | None]:
        """Build (or reuse) the curve of the effective `sellers` to `demand`, and its optimum.

        The optimum is None when no stock is left (empty curve).
        """
        horizon = max(self.config.curve_horizon, demand)
        key = (horizon, tuple(seller.availability for seller in sellers))
        if self._cached_outlook is None or self._cached_outlook[0] != key:
            curve = fair_price_curve(sellers, horizon)
            optimal = optimal_demand(curve) if curve.points else None
            self._cached_outlook = (key, curve, optimal)
        return self._cached_outlook[1:]

    def predict(self, what_if: Sequence[int] = (), *, ledger: SellerLedger) -> PricePrediction:
        """Current fair price, the optimal point, and what-if demand prices."""
        if self.status is not FairStatus.RUNNING:
            raise LifecycleError(f"fair {self.fair_id} is not running")
        demand = self.demand
        curve, optimal = self._outlook(ledger.effective_sellers(self.sellers), demand)
        if optimal is None:
            raise InfeasibleDemandError(max(demand, 1), 0)
        return _prediction(curve, optimal, demand, what_if)

    def join(
        self, order: BuyerOrder, ledger: SellerLedger, what_if: Sequence[int] = ()
    ) -> PricePrediction:
        """Add a buyer order; the deadline can only move earlier.

        A join past the deadline, or beyond what the sellers can still
        supply at the new aggregate demand, is rejected and changes nothing.
        """
        if self.status is not FairStatus.RUNNING:
            raise LifecycleError(f"fair {self.fair_id} is not running")
        if order.join_time >= self.deadline:
            raise LifecycleError(
                f"fair {self.fair_id} closes at {self.deadline}; "
                f"join at {order.join_time} is too late"
            )
        if any(o.buyer_id == order.buyer_id for o in self.orders):
            raise ValueError(f"buyer {order.buyer_id} already joined {self.fair_id}")

        demand = self.demand + order.quantity
        sellers = ledger.effective_sellers(self.sellers)
        supply = total_availability(sellers)
        if supply is not None and demand > supply:
            raise InfeasibleDemandError(demand, supply)
        curve, optimal = self._outlook(sellers, demand)

        self.orders.append(order)
        self.deadline = min(self.deadline, order.join_time + order.max_wait)
        return _prediction(curve, optimal, demand, what_if)

    def check_end(self, now: float, ledger: SellerLedger) -> FairStatus:
        """Advance the status when an end condition holds; never backward.

        Ends by time when `now` reaches the deadline (inclusive); ends by
        optimal price when the aggregated demand has reached the optimal
        point and the current price equals the optimal price exactly.
        """
        if self.status is not FairStatus.RUNNING:
            return self.status
        demand = self.demand
        if now >= self.deadline:
            self.status = FairStatus.ENDED_BY_TIME
        elif demand >= 1:
            curve, optimal = self._outlook(ledger.effective_sellers(self.sellers), demand)
            if demand <= len(curve.points) and demand >= optimal.q_star and (
                curve.price_at(demand) == optimal.z_star_cents
            ):
                self.status = FairStatus.ENDED_BY_OPTIMAL_PRICE
        return self.status

    def settle(self, ledger: SellerLedger) -> Settlement:
        """Allocate, pay sellers, and share the cost among buyers, as of the deadline.

        The allocation is the fair price curve's point at the final demand.
        Buyer unit prices start from (1 + margin) * cost / demand and are
        tilted by each buyer's fidelity, then renormalized so the grand
        total is exactly (1 + margin) * cost: higher fidelity pays less,
        the manager revenue stays margin * cost.
        """
        if self.status is FairStatus.SETTLED:
            raise LifecycleError(f"fair {self.fair_id} is already settled")
        if self.status not in _ENDED:
            raise LifecycleError(
                f"fair {self.fair_id} must end before settlement "
                f"(status {self.status.value})"
            )
        demand = self.demand
        allocation, cost = None, 0
        if demand:
            curve, _ = self._outlook(ledger.effective_sellers(self.sellers), demand)
            if demand > len(curve.points):
                raise InfeasibleDemandError(demand, curve.q_feasible_max)
            allocation = curve.allocation(demand)
            ledger.commit(allocation)
            cost = allocation.total_cost_cents
        margin = self.config.margin
        discount = self.config.fidelity_discount
        weights = [(order, 1 - discount * order.fidelity) for order in self.orders]
        weighted = sum(order.quantity * w for order, w in weights)
        charges = []
        for order, w in weights:
            # (1 + margin) * cost / demand, times w over the mean weight per unit
            unit = (1 + margin) * cost * w / weighted
            charges.append(
                BuyerCharge(
                    buyer_id=order.buyer_id,
                    quantity=order.quantity,
                    unit_price_cents=unit,
                    total_cents=unit * order.quantity,
                )
            )
        buyers_total = sum((c.total_cents for c in charges), Fraction(0))
        self._cached_outlook = None  # settlement is the last read of the fair's curve
        self.settlement = Settlement(
            fair_id=self.fair_id,
            allocation=allocation,
            buyer_charges=tuple(charges),
            seller_payments=() if allocation is None else allocation.entries,
            buyers_total_cents=buyers_total,
            sellers_total_cents=cost,
            manager_revenue_cents=buyers_total - cost,
            settled_at=self.deadline,
        )
        self.status = FairStatus.SETTLED
        return self.settlement


def open_fair(
    product_id: str,
    sellers: Sequence[Seller],
    config: FairConfig | None = None,
    opened_at: float = 0.0,
    fair_id: str | None = None,
    *,
    ledger: SellerLedger,
) -> Fair:
    """Open a running fair with an empty order book, named `fair-<product_id>` by default.

    Rejected when no seller can supply the product (empty seller set, or
    every unit of stock already committed elsewhere), when `ledger` does
    not hold every seller, and when the deadline `opened_at + max_duration`
    is not finite.
    """
    cfg = config or FairConfig()
    if not sellers:
        raise ValueError(f"no sellers can supply product {product_id}")
    supply = total_availability(ledger.effective_sellers(sellers))
    if supply is not None and supply < 1:
        raise ValueError(f"no remaining stock for product {product_id}")
    deadline = opened_at + cfg.max_duration
    if not math.isfinite(deadline):
        raise ValueError(
            f"product {product_id}: deadline {deadline} (opened at {opened_at} "
            f"plus max duration {cfg.max_duration}) is not finite"
        )
    return Fair(
        fair_id=fair_id or f"fair-{product_id}",
        product_id=product_id,
        sellers=tuple(sellers),
        config=cfg,
        opened_at=opened_at,
        deadline=deadline,
    )
