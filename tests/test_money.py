"""Tests for exact money parsing and rendering."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fair_engine.money import cents, frac_str, ratio, ratio_str


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
