"""Exact money arithmetic in integer minor units.

All prices in the engine are amounts of a generic currency unit (CU) carried
internally as integer cents (1 CU = 100 cents).  Quantities that cannot be
integers (weighted mean prices, fidelity-adjusted shares) are carried as
`fractions.Fraction` over cents, so sums and comparisons stay exact and
regression output is bit-stable.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Sequence

import numpy as np

Cents = int


# Python's default int/str digit limit.  An exact Fraction of 10^e holds an
# integer of e + 1 digits, so a larger exponent is refused, not built.
_MAX_EXPONENT = 4300


def _to_decimal(value) -> Decimal:
    """A finite amount as a Decimal whose exponent is within _MAX_EXPONENT."""
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, int):
        dec = Decimal(value)
    elif isinstance(value, float):
        # repr round-trips floats, so "4.69" parses as the intended 4.69 CU
        dec = Decimal(repr(value))
    elif isinstance(value, str):
        try:
            dec = Decimal(value)
        except InvalidOperation as exc:
            raise ValueError(f"not a currency amount: {value!r}") from exc
    elif isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        raise TypeError(f"cannot interpret {type(value).__name__} as a currency amount")
    if not dec.is_finite():
        raise ValueError(f"amount must be finite, got {value!r}")
    if abs(dec.adjusted()) > _MAX_EXPONENT:
        raise ValueError(
            f"amount {value!r} has a decimal exponent beyond ±{_MAX_EXPONENT}"
        )
    return dec


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


def div_round_half_even(num, den):
    """Banker's rounding of num/den (den > 0) to the nearest integer.

    One expression without branches, so it gives an int for Python ints and
    rounds int64 or object numpy arrays element by element (2 * den must
    fit the array's type).
    """
    q = num // den
    twice = 2 * (num - q * den)  # twice the remainder, num % den
    return q + ((twice > den) | ((twice == den) & ((q & 1) == 1)))


def cu_str(amount: Cents) -> str:
    """Render integer cents as a two-decimal CU string, e.g. 469 -> '4.69'."""
    return _fixed_str(amount, 100, 2)


def frac_str(value: Fraction | int, places: int = 4) -> str:
    """Render an exact cents value as a fixed-width CU decimal string."""
    return per_unit_str(value.numerator, value.denominator, places)


def per_unit_str(cost: Cents, q: int, places: int = 4) -> str:
    """`frac_str` of cost / q (q > 0), with no Fraction made."""
    return _fixed_str(cost, q * 100, places)


def per_unit_column(costs: Sequence[Cents]) -> list[str]:
    """`per_unit_str(costs[q - 1], q)` for every q = 1..len(costs), rounded in one array pass.

    The arithmetic is int64 while |cost| * 10**4 stays below 2**62, and
    Python ints (object) beyond.
    """
    scale = 10**4
    top = max(max(costs, default=0), -min(costs, default=0))
    dtype = np.int64 if top * scale < (1 << 62) else object
    per_unit = np.arange(1, len(costs) + 1, dtype=dtype) * 100
    digits = div_round_half_even(np.abs(np.array(costs, dtype=dtype)) * scale, per_unit)
    return [
        f"{'-' if cost < 0 else ''}{whole}.{part:04d}"
        for cost, whole, part in zip(costs, (digits // scale).tolist(), (digits % scale).tolist())
    ]


def ratio_str(value: Fraction | int, places: int = 6) -> str:
    """Render an exact dimensionless ratio as a fixed-width decimal string."""
    return _fixed_str(value.numerator, value.denominator, places)


def _fixed_str(num: int, den: int, places: int) -> str:
    """num/den (den > 0) at `places` decimals, rounded once, half to even.

    The rounding is in integers, so the digits are exact at any magnitude;
    a negative value keeps its sign even when it rounds to zero ("-0.0000").
    """
    scale = 10**places
    digits = div_round_half_even(abs(num) * scale, den)
    sign = "-" if num < 0 else ""
    if places == 0:
        return f"{sign}{digits}"
    whole, part = divmod(digits, scale)
    return f"{sign}{whole}.{part:0{places}d}"
