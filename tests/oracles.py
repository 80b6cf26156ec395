"""Independent oracles used by the test suite.

These deliberately avoid the production solver paths: enumeration and
direct scans only, so a solver bug cannot hide behind a shared
implementation.
"""

import itertools
from fractions import Fraction


def brute_force_min_cost(sellers, q):
    """Minimum total cost over every feasible integer split of q."""
    ranges = [range(0, s.capacity(q) + 1) for s in sellers]
    best = None
    for combo in itertools.product(*ranges):
        if sum(combo) != q:
            continue
        cost = sum(
            x * s.curve.price_at(x) for s, x in zip(sellers, combo) if x > 0
        )
        if best is None or cost < best:
            best = cost
    return best


def repriced(allocation, sellers):
    """An allocation's fair unit price, recomputed from the sellers' own curves.

    Sums x * price_at(x) over the entries and divides by the demand q.
    Each entry must name a known seller with x in 1..stock, and the
    quantities must cover q.
    """
    by_id = {s.id: s for s in sellers}
    q = allocation.total_quantity
    assert sum(e.quantity for e in allocation.entries) == q
    cost = 0
    for entry in allocation.entries:
        assert entry.seller_id in by_id, f"unknown seller {entry.seller_id}"
        seller, x = by_id[entry.seller_id], entry.quantity
        assert 1 <= x <= seller.capacity(x), f"{seller.id}: {x} units outside 1..stock"
        cost += x * seller.curve.price_at(x)
    return Fraction(cost, q)


def first_minimum(prices):
    """Smallest index (1-based) attaining the minimum of a price sequence."""
    best = min(prices)
    return prices.index(best) + 1, best


def scan_dp_tables(sellers, q_max):
    """The exact solver's DP tables, by the plain upward scan over quantities.

    Keys pack (total cost, sellers used) as cost * width + count.  For each
    seller in id order, quantities x = 1, 2, ... replace a demand's best key
    only on strict improvement, which fixes the tie-break.  Returns the
    final keys (None where a demand is unreachable) and one choice list per
    seller.
    """
    ordered = sorted(sellers, key=lambda s: s.id)
    width = len(ordered) + 1
    key = [0] + [None] * q_max
    choices = []
    for seller in ordered:
        best = list(key)
        choice = [0] * (q_max + 1)
        for x in range(1, seller.capacity(q_max) + 1):
            delta = x * seller.curve.price_at(x) * width + 1
            for q in range(x, q_max + 1):
                if key[q - x] is None:
                    continue
                if best[q] is None or key[q - x] + delta < best[q]:
                    best[q] = key[q - x] + delta
                    choice[q] = x
        key = best
        choices.append(choice)
    return key, choices


def scan_allocation(sellers, q):
    """The exact solver's split of q, rebuilt from scan_dp_tables.

    Returns the quantity per seller id (sellers supplying nothing left
    out), or None when the sellers cannot supply q.
    """
    key, choices = scan_dp_tables(sellers, q)
    if key[q] is None:
        return None
    split = {}
    ordered = sorted(sellers, key=lambda s: s.id)
    for seller, choice in zip(reversed(ordered), reversed(choices)):
        if choice[q]:
            split[seller.id] = choice[q]
            q -= choice[q]
    return split
