"""Tests for exact money rendering."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fair_engine.money import frac_str, ratio_str


def reference_str(value: Fraction, places: int) -> str:
    """Half-to-even rounding by `round` on a Fraction, which is exact."""
    digits = round(value * 10**places)
    sign = "-" if value < 0 else ""
    whole, part = divmod(abs(digits), 10**places)
    return f"{sign}{whole}.{part:0{places}d}" if places else f"{sign}{whole}"


@settings(deadline=None)
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
