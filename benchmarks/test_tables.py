"""Seller price tables and the lower envelope, timed with pytest-benchmark.

- `fill`: every seller's price table filled from scratch and laid end to
  end, as the first curve build over fresh sellers reads them
  (`allocation._price_tables`); each round gets new curve objects in its
  (untimed) setup.  Shapes: 60 generated linear sellers to x = 200 (one
  `experiment_sweep` population) and the 200 tabular sellers of the
  `north_star` market to x = 40, without stock limits.
- `lower_envelope`: 60 generated linear sellers to q = 200, tables filled
  by a warm-up round, as an all-unlimited `experiment` entry reads them.

Run with `python -m pytest benchmarks`; `--benchmark-disable` runs each case
once, as a smoke test.  Tier-1 (`testpaths = tests`) does not collect them.
"""

from dataclasses import replace

import pytest
from test_splits import tabular_market

from fair_engine.allocation import _price_tables
from fair_engine.curves import lower_envelope
from fair_engine.synth import PopulationSpec, generate_sellers


def linear_sellers():
    return generate_sellers(PopulationSpec(n_sellers=60, seed=200)), 200


def tabular_sellers():
    return [replace(s, availability=None) for s in tabular_market(200, 2000)], 40


SHAPES = {"linear-60x200": linear_sellers, "tabular-200x40": tabular_sellers}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fill(benchmark, shape):
    def fresh():  # new curve objects, so no table is kept from an earlier round
        sellers, x_max = SHAPES[shape]()
        return (sorted((replace(s, curve=replace(s.curve)) for s in sellers), key=lambda s: s.id),
                x_max), {}

    flat, caps, _ = benchmark.pedantic(_price_tables, setup=fresh, rounds=7, warmup_rounds=1)
    assert len(flat) == int(caps.sum()) + len(caps)


def test_lower_envelope(benchmark):
    sellers, q_max = linear_sellers()
    pairs = [(s.id, s.curve) for s in sellers]
    envelope = benchmark.pedantic(lower_envelope, args=(pairs, q_max), rounds=7, warmup_rounds=1)
    assert len(envelope.points) == q_max
