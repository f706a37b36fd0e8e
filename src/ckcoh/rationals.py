"""Exact scalar arithmetic helpers.

All scalar values in this package (contraction constants, structure constants,
extension coefficients) are exact rationals.  They are held either as plain
``int`` or as ``fractions.Fraction``; Fraction guarantees lowest terms and a
positive denominator, and mixed int/Fraction arithmetic stays exact.  Keeping
denominator-1 values as int is a large speedup for the elimination kernels.
No floating point is used anywhere.
"""

from __future__ import annotations

import functools
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
    """Parse 'num' or 'num/den' (ASCII or U+2212 minus) into an exact value.

    Exponent notation is refused: `Fraction` would expand a short token such
    as '1e999999999' into a huge integer before anything could bound it.
    """
    text = token.strip().replace("−", "-")
    if "e" in text or "E" in text:
        raise ValueError(f"bad rational token {token!r}: exponent notation is not accepted")
    try:
        return ratio(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational token {token!r}") from exc


def format_rational(value) -> str:
    """Render an exact value as 'num' or 'num/den'."""
    value = ratio(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def _lines(text: str) -> list[str]:
    """The stripped lines of a text format, blank and `#` comment lines dropped."""
    return [line.strip() for line in text.splitlines() if line.strip() and line.strip()[0] != "#"]


def _reader(parse):
    """Make a text or JSON reader raise ValueError, and only that, on bad input.

    Out-of-range entries make the constructors raise IndexError, and a mangled
    input meets KeyError, TypeError or AttributeError on the way.
    """

    @functools.wraps(parse)
    def read(cls, data):
        try:
            return parse(cls, data)
        except (LookupError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed {cls.__name__} input: {exc!r}") from exc

    return read
