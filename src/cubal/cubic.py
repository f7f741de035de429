"""Cubic matrices with exact entries and the operation-parameterized product.

A cubic matrix is a dense m*m*m array of exact rationals; the basis
element with a single 1 at position (i, j, k) is written E(i, j, k).  The
product attached to an associative operation a multiplies basis elements by

    E(i, j, k) * E(l, n, r)  =  E(i, a(j, n), r)   when k = l, else 0,

and extends bilinearly: entry (i, j, r) of a product is the sum of
A[i, l, k] * B[k, n, r] over all k and all pairs (l, n) with a(l, n) = j.
The map onto the m x m accompanying algebra, which sums each middle-index
fiber, is ``structure.accompanying_image``.  Each matrix is scaled to ints
once, on first use: the product, that map and the zero-divisor block all run
on this form, and a product's entries are made from it only when read; a
right factor's form is split by first index once and kept with it.  Entries
must be ints or Fractions where they enter; the library's results skip that scan.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FormatError
from .operations import Operation
from .scalars import integral, require_rational


class CubicMatrix:
    """An immutable m x m x m array of exact rationals (ints and Fractions)."""

    __slots__ = ("m", "_entries", "_form")

    def __init__(self, m: int, entries):
        entries = tuple(entries)
        if len(entries) != m * m * m:
            raise FormatError(f"expected {m}**3 entries, got {len(entries)}")
        require_rational(*entries)
        self.m, self._entries, self._form = m, entries, None

    @classmethod
    def _trusted(cls, m: int, entries) -> "CubicMatrix":
        """The matrix of m^3 ints and Fractions the library computed, unchecked."""
        x = object.__new__(cls)
        x.m, x._entries, x._form = m, tuple(entries), None
        return x

    @classmethod
    def _from_form(cls, m: int, items: tuple, d: int) -> "CubicMatrix":
        """The matrix whose ``integral_items()`` are (items, d); entries come later."""
        x = object.__new__(cls)
        x.m, x._entries, x._form = m, None, (items, d, None)
        return x

    @property
    def entries(self) -> tuple:
        """The m^3 entries in flat order; int / d is a Fraction when d != 1."""
        if self._entries is None:
            (items, d, _), out = self._form, [0] * self.m**3
            for flat, x in items:
                out[flat] = x if d == 1 else Fraction(x, d)
            self._entries = tuple(out)
        return self._entries

    @classmethod
    def zero(cls, m: int) -> "CubicMatrix":
        return cls._trusted(m, (0,) * (m * m * m))

    @classmethod
    def basis(cls, m: int, i: int, j: int, k: int) -> "CubicMatrix":
        """E(i, j, k): the single-entry matrix with a 1 at (i, j, k)."""
        for idx in (i, j, k):
            if not 1 <= idx <= m:
                raise FormatError(f"index {idx} outside 1..{m}")
        entries = [0] * (m * m * m)
        entries[((i - 1) * m + (j - 1)) * m + (k - 1)] = 1
        return cls._trusted(m, entries)

    @classmethod
    def from_nested(cls, nested) -> "CubicMatrix":
        """Build from nested lists indexed [i-1][j-1][k-1]."""
        m = len(nested)
        if any(len(plane) != m or any(len(row) != m for row in plane) for plane in nested):
            raise FormatError("ragged cubic array")
        return cls(m, [x for plane in nested for row in plane for x in row])

    def to_nested(self) -> list:
        m = self.m
        return [
            [list(self.entries[(i * m + j) * m : (i * m + j) * m + m]) for j in range(m)]
            for i in range(m)
        ]

    def entry(self, i: int, j: int, k: int):
        return self.entries[((i - 1) * self.m + (j - 1)) * self.m + (k - 1)]

    def nonzero_items(self):
        """Tuple of (flat_index, value) over nonzero entries."""
        return tuple((idx, val) for idx, val in enumerate(self.entries) if val != 0)

    def integral_items(self) -> tuple[tuple, int]:
        """Cached (flat_index, int) pairs of the nonzero entries, each int / d for
        d > 0 their lcm denominator (``scalars.integral``)."""
        if self._form is None:
            nz = self.nonzero_items()
            ints, d = integral(v for _, v in nz)
            self._form = (tuple(zip([flat for flat, _ in nz], ints)), d, None)
        return self._form[:2]

    def is_zero(self) -> bool:
        return not self.integral_items()[0]

    def integer_multiple(self) -> "CubicMatrix":
        """self times the lcm of its denominators, a multiple with int entries."""
        return CubicMatrix._from_form(self.m, self.integral_items()[0], 1)

    def _require_same_size(self, other: "CubicMatrix"):
        if not isinstance(other, CubicMatrix):
            raise TypeError(f"expected a CubicMatrix, got {other!r}")
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        self._require_same_size(other)
        return CubicMatrix(self.m, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._require_same_size(other)
        return CubicMatrix(self.m, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return CubicMatrix(self.m, (-a for a in self.entries))

    def scale(self, scalar) -> "CubicMatrix":
        require_rational(scalar)
        return CubicMatrix._trusted(self.m, (scalar * a for a in self.entries))

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def mul(self, other: "CubicMatrix", op: Operation) -> "CubicMatrix":
        """The product of self and other under the operation's multiplication.

        The inner loop runs on the operands' ``integral_items``, built once per
        matrix; the int sums over da * db, reduced by their gcd, are the
        product's form, and its entries are made only when read.  The right
        factor's items are split into (n, r, value) by their first index once,
        as the third part of its form, and each left entry at flat
        (i m + l) m + k reads its row offsets from ``op._row_plan()``.
        """
        self._require_same_size(other)
        m = self.m
        if op.m != m:
            raise ValueError(f"operation acts on {op.m} symbols, matrices have m={m}")
        a_items, da = self.integral_items()
        b_items, db = other.integral_items()
        by_k = other._form[2]
        if by_k is None:
            by_k = [[] for _ in range(m)]
            for flat, val in b_items:
                by_k[flat // (m * m)].append((flat // m % m, flat % m, val))
            other._form = (b_items, db, by_k)
        plan = op._row_plan()
        out: list = [0] * (m * m * m)
        for aflat, aval in a_items:
            il, k0 = divmod(aflat, m)
            row = plan[il]
            for n0, r0, bval in by_k[k0]:
                out[row[n0] + r0] += aval * bval
        d = da * db
        if d == 1:
            # the sums are the entries: the gcd scan and sparse form below
            # would take the m = 3 basis products of tools/bench_products.py
            # from 0.40 to 0.63 ms (best of 7, 2-vCPU VM, Python 3.11)
            return CubicMatrix._trusted(m, out)
        g = gcd(d, *out)
        items = tuple((flat, x // g) for flat, x in enumerate(out) if x)
        return CubicMatrix._from_form(m, items, d // g)

    def plenary_power(self, n: int, op: Operation) -> "CubicMatrix":
        """n successive squarings under the operation's multiplication."""
        if n < 0:
            raise ValueError("plenary power index must be nonnegative")
        result = self
        for _ in range(n):
            result = result.mul(result, op)
        return result

    def __eq__(self, other):
        # len(entries) is m**3, so equal entries imply equal m
        return isinstance(other, CubicMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash((self.m, self.entries))

    def __repr__(self):
        nz = ", ".join(
            f"({idx // (self.m * self.m) + 1},{(idx // self.m) % self.m + 1},{idx % self.m + 1})={val}"
            for idx, val in self.nonzero_items()
        )
        return f"CubicMatrix(m={self.m}, {{{nz or '0'}}})"
