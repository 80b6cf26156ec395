"""The exact solver's DP sweep alone, timed with pytest-benchmark.

Each round runs `_dp_tables` over the sellers with stock of a `north_star`
tabular market (step curves, stock drawn from 0..40), as a curve build
passes them, at n = 20, 50 and 200 sellers and demands to q = 200, 1,000
and 2,000.  An untimed warm-up round fills the sellers' price-table memos.

Run with `python -m pytest benchmarks`; `--benchmark-disable` runs each case
once, as a smoke test.  Tier-1 (`testpaths = tests`) does not collect them.
"""

import pytest
from test_splits import tabular_market

from fair_engine.allocation import _INF, _dp_tables, _stocked


@pytest.mark.parametrize("q_max", [200, 1000, 2000])
@pytest.mark.parametrize("n", [20, 50, 200])
def test_dp_sweep(benchmark, n, q_max):
    stocked = _stocked(tabular_market(n, q_max))
    key, choices, *_ = benchmark.pedantic(
        _dp_tables, args=(stocked, q_max), rounds=7, warmup_rounds=1
    )
    reachable = min(q_max, sum(s.availability for s in stocked))
    assert len(choices) == len(stocked)
    assert key[reachable] < _INF and (key[reachable + 1 :] == _INF).all()
