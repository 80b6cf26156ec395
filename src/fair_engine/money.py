"""Exact money arithmetic in integer minor units.

All prices in the engine are amounts of a generic currency unit (CU) carried
internally as integer cents (1 CU = 100 cents).  Quantities that cannot be
integers (weighted mean prices, fidelity-adjusted shares) are carried as
`fractions.Fraction` over cents, so sums and comparisons stay exact and
regression output is bit-stable.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from fractions import Fraction

Cents = int

_CENT = Decimal("0.01")


def _to_decimal(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, float):
        # repr round-trips floats, so "4.69" parses as the intended 4.69 CU
        return Decimal(repr(value))
    if isinstance(value, str):
        try:
            return Decimal(value)
        except InvalidOperation as exc:
            raise ValueError(f"not a currency amount: {value!r}") from exc
    if isinstance(value, Fraction):
        return Decimal(value.numerator) / Decimal(value.denominator)
    raise TypeError(f"cannot interpret {type(value).__name__} as a currency amount")


def cents(value) -> Cents:
    """Parse a CU amount into integer cents; sub-cent remainders are rejected."""
    dec = _to_decimal(value) * 100
    whole = int(dec)
    if dec != whole:
        raise ValueError(f"amount {value!r} is not on the cent grid")
    return whole


def ratio(value) -> Fraction:
    """Parse a scalar (rate, margin, score) into an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(_to_decimal(value))


def div_round_half_even(num: int, den: int) -> int:
    """Banker's rounding of num/den (den > 0) to the nearest integer."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2):
        q += 1
    return q


def cu_str(amount: Cents) -> str:
    """Render integer cents as a two-decimal CU string, e.g. 469 -> '4.69'."""
    sign = "-" if amount < 0 else ""
    whole, part = divmod(abs(amount), 100)
    return f"{sign}{whole}.{part:02d}"


def frac_str(value: Fraction | int, places: int = 4) -> str:
    """Render an exact cents value as a fixed-width CU decimal string."""
    return ratio_str(Fraction(value) / 100, places)


def ratio_str(value: Fraction | int, places: int = 6) -> str:
    """Render an exact dimensionless ratio as a fixed-width decimal string."""
    frac = Fraction(value)
    dec = Decimal(frac.numerator) / Decimal(frac.denominator)
    exp = Decimal(1).scaleb(-places)
    return str(dec.quantize(exp, rounding=ROUND_HALF_EVEN))
