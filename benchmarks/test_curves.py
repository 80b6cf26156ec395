"""Fair price curve builds, timed with pytest-benchmark.

Each round builds one curve; the sellers' price-table memos are filled by
a warm-up round first, as in a fair that rebuilds its curve on each join.

Shapes:
- `lifecycle`: 50 generated linear sellers, stock drawn from 20..60, demands
  to 300, the curve a `fair_lifecycle` join builds, timed for the exact DP
  and the greedy sweep;
- `lifecycle_sold_out`: the same market with every fifth seller sold out,
  which a curve build drops before any sweep;
- `market`: 20 generated linear sellers, stock drawn from 10..30, demands to
  100, the curve a `fair_market` join builds, for both methods;
- `sold_out_crowd`: 2,000 sold-out sellers beside 3 unlimited ones, demands
  to 2,000; the round also reads `summaries()`, so it times the fills too.

Run with `python -m pytest benchmarks`; `--benchmark-disable` runs each case
once, as a smoke test.  Tier-1 (`testpaths = tests`) does not collect them.
"""

from dataclasses import replace

import pytest
from test_splits import lifecycle, market

from fair_engine.allocation import Seller, fair_price_curve
from fair_engine.curves import linear_curve


def lifecycle_sold_out() -> tuple[list[Seller], int]:
    sellers, q_max = lifecycle()
    return [replace(s, availability=0) if i % 5 == 0 else s for i, s in enumerate(sellers)], q_max


SHAPES = {"lifecycle": lifecycle, "lifecycle_sold_out": lifecycle_sold_out, "market": market}


@pytest.mark.parametrize("method", ["exact", "greedy"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_build(benchmark, shape, method):
    sellers, q_max = SHAPES[shape]()
    curve = benchmark.pedantic(
        fair_price_curve, args=(sellers, q_max), kwargs={"method": method},
        rounds=7, warmup_rounds=1,
    )
    assert len(curve.points) == q_max


def test_sold_out_crowd_build_and_summaries(benchmark):
    sold_out = [Seller(f"Z{i:04d}", linear_curve(5, 0, 5), availability=0) for i in range(2000)]
    unlimited = [Seller(f"U{i}", linear_curve(100 + 10 * i, "0.01", 50 + 5 * i))
                 for i in range(3)]
    texts = benchmark.pedantic(
        lambda: fair_price_curve([*sold_out, *unlimited], 2000).summaries(),
        rounds=7, warmup_rounds=1,
    )
    assert len(texts) == 2000
