"""Tests for exact money parsing and rendering."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fair_engine.money import (
    cents,
    cu_str,
    div_round_half_even,
    frac_str,
    per_unit_column,
    per_unit_str,
    ratio,
    ratio_str,
)


def reference_str(value: Fraction, places: int) -> str:
    """Half-to-even rounding by `round` on a Fraction, which is exact."""
    digits = round(value * 10**places)
    sign = "-" if value < 0 else ""
    whole, part = divmod(abs(digits), 10**places)
    return f"{sign}{whole}.{part:0{places}d}" if places else f"{sign}{whole}"


@given(
    st.fractions(max_denominator=10**12)
    | st.builds(Fraction, st.integers(-(10**45), 10**45), st.integers(1, 10**42))
    | st.builds(lambda n, e: Fraction(2 * n + 1, 2 * 10**e), st.integers(-(10**9), 10**9),
                st.integers(0, 8))
    # a tie at 0, 4 or 6 places moved by 10^-k: the tie's side shows only
    # past the 28th significant digit
    | st.builds(lambda n, e, k, sign: Fraction(2 * n + 1, 2 * 10**e) + Fraction(sign, 10**k),
                st.integers(-(10**6), 10**6), st.sampled_from([0, 4, 6]),
                st.integers(29, 45), st.sampled_from([-1, 1])),
    st.sampled_from([0, 4, 6]),
)
def test_ratio_str_rounds_once_half_to_even(value, places):
    assert ratio_str(value, places) == reference_str(value, places)


@given(st.integers(-(10**42), 10**42) | st.integers(-1000, 1000))
def test_cu_str_renders_cents_at_two_places(amount):
    assert cu_str(amount) == reference_str(Fraction(amount, 100), 2)


def test_rounding_is_exact_past_28_digits():
    assert ratio_str(Fraction(5 * 10**33 + 1, 10**40)) == "0.000001"
    assert ratio_str(Fraction(5 * 10**33, 10**40)) == "0.000000"
    assert frac_str(10**28) == "100000000000000000000000000.0000"


def test_small_negatives_keep_their_sign():
    assert frac_str(Fraction(-1, 10**9)) == "-0.0000"
    assert frac_str(0) == "0.0000"
    assert ratio_str(Fraction(-5, 2), 0) == "-2"
    assert ratio_str(Fraction(7, 2), 0) == "4"


@pytest.mark.parametrize("parse", [ratio, cents])
@pytest.mark.parametrize(
    "value", ["Infinity", "-inf", "NaN", "sNaN", float("inf"), float("nan"), Decimal("Infinity")]
)
def test_non_finite_amounts_are_refused(parse, value):
    with pytest.raises(ValueError, match="must be finite"):
        parse(value)


@pytest.mark.parametrize("parse", [ratio, cents])
@pytest.mark.parametrize("value", ["1e999999999", "1e-999999999", "0e999999999", "1e4301"])
def test_amounts_beyond_the_exponent_bound_are_refused(parse, value):
    # an exact Fraction of 10^999999999 would never finish building
    with pytest.raises(ValueError, match="decimal exponent beyond"):
        parse(value)


def test_amounts_within_the_exponent_bound_are_exact():
    assert ratio("1e4300") == 10**4300
    assert ratio("1e-4300") == Fraction(1, 10**4300)
    assert cents("1e300") == 10**302


def divmod_round_half_even(num: int, den: int) -> int:
    """The rounding as it was first written: divmod, then a branch."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


@given(st.integers(-(10**40), 10**40) | st.integers(-50, 50),
       st.integers(1, 10**30) | st.integers(1, 8))
def test_half_even_rounding_of_python_ints_is_the_divmod_form(num, den):
    rounded = div_round_half_even(num, den)
    assert type(rounded) is int
    assert rounded == divmod_round_half_even(num, den)


int64_pairs = st.tuples(st.integers(-(2**62), 2**62 - 1), st.integers(1, 2**61))


@given(st.lists(int64_pairs | st.tuples(st.integers(-40, 40), st.integers(1, 8)), max_size=30))
def test_half_even_rounding_of_int64_arrays_is_the_divmod_form_per_element(pairs):
    nums = np.array([n for n, _ in pairs], dtype=np.int64)
    dens = np.array([d for _, d in pairs], dtype=np.int64)
    rounded = div_round_half_even(nums, dens)
    assert rounded.dtype == np.int64
    assert rounded.tolist() == [divmod_round_half_even(n, d) for n, d in pairs]


@given(st.lists(st.tuples(st.integers(-(10**40), 10**40), st.integers(1, 10**30)), max_size=30))
def test_half_even_rounding_of_object_arrays_is_the_divmod_form_per_element(pairs):
    nums = np.array([n for n, _ in pairs], dtype=object)
    dens = np.array([d for _, d in pairs], dtype=object)
    rounded = div_round_half_even(nums, dens).tolist()
    assert all(type(r) is int for r in rounded)
    assert rounded == [divmod_round_half_even(n, d) for n, d in pairs]


@given(st.lists(st.integers(-(10**14), 10**14) | st.integers(-300, 300), max_size=40))
def test_a_per_unit_column_is_per_unit_str_at_every_demand(costs):
    assert per_unit_column(costs) == [per_unit_str(c, q) for q, c in enumerate(costs, start=1)]


@pytest.mark.parametrize(
    "costs",
    [
        [7, 2**59, -(10**15) - 1, 3 * 10**40 + 5, 123_456_789_050],
        [10**15 + 1, 5],
        [-(10**15) - 7],
        [],
    ],
)
def test_a_per_unit_column_beyond_the_int64_path_is_per_unit_str_at_every_demand(costs):
    # each list holds a cost whose |cost| * 10**4 is past 2**62, or none at all
    assert per_unit_column(costs) == [per_unit_str(c, q) for q, c in enumerate(costs, start=1)]
