"""Scalar layer: exact rationals.

Every scalar is a rational: a ``Fraction``, or a Python int as an exact
rational value.  The hot loops run on ints: ``integral`` scales a run of
rationals by the lcm of their denominators.  A cubic matrix is scaled
once, when it is made, and keeps that form for every product, fiber sum and
zero-divisor block it enters; elimination scales its rows once per call.
Both divide the scale back out only where a rational is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import FormatError


def parse_scalar(text) -> Fraction:
    """Parse a reduced-fraction string such as "3" or "-1/2" (ints pass through)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad scalar {text!r}: {exc}") from None
    raise FormatError(f"bad scalar {text!r}: expected string or integer")


def require_rational(*values) -> None:
    """Raise TypeError naming the first value that is not an int or a Fraction."""
    if not {int, Fraction}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in (int, Fraction))
        raise TypeError(f"expected an int or a Fraction, got {bad!r}")


def integral(values) -> tuple[list, int]:
    """The values (ints and Fractions) times the lcm d of their denominators,
    as ints, and d.  Any other value, such as a float, raises TypeError.
    """
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    require_rational(*values)
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def format_scalar(x) -> str:
    """Render an exact rational as its reduced-fraction string."""
    return str(Fraction(x))
