"""Exact rational parsing and rendering helpers.

All quantities in the package are `fractions.Fraction`; floats are rejected at
every input boundary so exactness can never silently degrade.
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(value) -> Fraction:
    """Parse an int or a "p/q" / "p" string into a Fraction.

    Floats and decimal strings are rejected: they cannot carry exact values.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if not match:
            raise ValueError(f"not a rational: {value!r}")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q" in lowest terms, "p" when the denominator is 1."""
    return str(value)


def decimal_string(value: Fraction, digits: int = 20) -> str:
    """Round-half-even decimal rendering with the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)
