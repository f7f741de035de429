"""Scalar layer: exact rationals by default, prime fields for oracle work.

Every algebraic routine in the package manipulates scalars only through
arithmetic operators and comparisons with the integers 0 and 1, so any field
element type with int interop plugs in.  Python ints are accepted as exact
rational values throughout.  The hot loops run on ints: ``integral`` scales a
run of rationals by the lcm of their denominators.  A cubic matrix is scaled
once, on first use, and keeps that form for every product, fiber sum and
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


def integral(values) -> tuple[list, int]:
    """The values times the lcm d of their denominators, as ints, and d.

    Rationals (ints and Fractions) come back as ints; any other scalar type,
    such as a prime-field element, passes through unchanged with scale 1.
    """
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    try:
        d = lcm(*[v.denominator for v in values])
    except AttributeError:
        return values, 1
    return [v.numerator * (d // v.denominator) for v in values], d


def format_scalar(x) -> str:
    """Render an exact rational as its reduced-fraction string."""
    return str(Fraction(x))


def _field_op(f):
    """A binary operator on prime-field elements from f(a, b, p) on their values."""

    def method(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(f(self.value, o.value, self.p), self.p)

    return method


class PrimeFieldElement:
    """An element of the field with p elements, p prime.

    Interoperates with Python ints so generic code can compare against 0 and
    1 and start sums at 0.  Division is exact, so ``//`` is ``/``.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError(f"mixed fields GF({self.p}) and GF({other.p})")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return PrimeFieldElement(other, self.p)
        return None

    __add__ = __radd__ = _field_op(lambda a, b, p: a + b)
    __sub__ = _field_op(lambda a, b, p: a - b)
    __rsub__ = _field_op(lambda a, b, p: b - a)
    __mul__ = __rmul__ = _field_op(lambda a, b, p: a * b)
    __truediv__ = __floordiv__ = _field_op(lambda a, b, p: a * pow(b, -1, p))
    __rtruediv__ = __rfloordiv__ = _field_op(lambda a, b, p: b * pow(a, -1, p))

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.value}, {self.p})"
