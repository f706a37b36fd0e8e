"""Exact scalar arithmetic helpers.

All scalar values in this package (contraction constants, structure constants,
extension coefficients) are exact rationals.  They are held either as plain
``int`` or as ``fractions.Fraction``; Fraction guarantees lowest terms and a
positive denominator, and mixed int/Fraction arithmetic stays exact.  Keeping
denominator-1 values as int is a large speedup for the elimination kernels.
No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

Scalar = int | Fraction


def ratio(value) -> Scalar:
    """Normalize an exact value: Fractions with denominator 1 become int."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(token: str) -> Scalar:
    """Parse 'num', 'num/den' or a decimal (ASCII or U+2212 minus) into an exact value.

    Exponent notation is refused: `Fraction` would expand a short token such
    as '1e999999999' into a huge integer before anything could bound it.  So
    no token with an e or E reaches `Fraction` whole; one that is a rational,
    then e or E, then an integer exponent gets the message that names
    exponent notation, and any other bad token the plain one.
    """
    text = token.strip().replace("−", "-")
    mantissa, e, exponent = text.replace("E", "e").partition("e")
    try:
        value = ratio(Fraction(mantissa))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational token {token!r}") from exc
    if not e:
        return value
    if re.fullmatch("[-+]?[0-9]+", exponent):
        raise ValueError(f"bad rational token {token!r}: exponent notation is not accepted")
    raise ValueError(f"bad rational token {token!r}")


def format_rational(value) -> str:
    """Render an exact value as 'num' or 'num/den'."""
    value = ratio(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"
