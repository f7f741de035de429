"""Cubic matrices with exact entries and the operation-parameterized product.

A cubic matrix is a dense m*m*m array of exact rationals; the basis
element with a single 1 at position (i, j, k) is written E(i, j, k).  The
product attached to an associative operation a multiplies basis elements by

    E(i, j, k) * E(l, n, r)  =  E(i, a(j, n), r)   when k = l, else 0,

and extends bilinearly: entry (i, j, r) of a product is the sum of
A[i, l, k] * B[k, n, r] over all k and all pairs (l, n) with a(l, n) = j.
The map onto the m x m accompanying algebra, which sums each middle-index
fiber, is ``structure.accompanying_image``.  Each matrix holds one int form,
made with it: its nonzero entries by first index (``slabs``) as ints over one
reduced denominator ``d``.  The product takes the right factor's slabs by
first index and writes the product's slab by slab; that map and the
zero-divisor block read the same form.  A left factor multiplied by the
same right factor again keeps their slice products (see ``mul``).  The
entries are a view made from the form on first read, except that
``CubicMatrix(m, entries)`` keeps the entries it is given, which must be
ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FormatError, require_count, require_indices, require_size, same_size
from .operations import Operation
from .scalars import integral, require_rational


class CubicMatrix:
    """An immutable m x m x m array of exact rationals (ints and Fractions).

    ``slabs[i]`` holds the nonzero entries of first index i (0-based) as
    (j m + k, int) pairs in increasing order, each int / d the entry, for one
    denominator d > 0 with gcd(d, ints) = 1; equal matrices have equal forms.
    """

    __slots__ = ("m", "slabs", "d", "_entries", "_pair")

    def __init__(self, m: int, entries):
        require_size(m)
        entries = tuple(entries)
        if len(entries) != m * m * m:
            raise FormatError(f"expected {m}**3 entries, got {len(entries)}")
        ints, self.d = integral(entries)
        self.m, self.slabs, self._entries, self._pair = m, _slabs_of(m, ints), entries, None

    @classmethod
    def _from_form(cls, m: int, slabs: tuple, d: int, entries=None) -> "CubicMatrix":
        """The matrix of a reduced form the library computed; entries not given come later."""
        x = object.__new__(cls)
        x.m, x.slabs, x.d, x._entries, x._pair = m, slabs, d, entries, None
        return x

    @property
    def entries(self) -> tuple:
        """The m^3 entries in flat order; int / d is a Fraction when d != 1."""
        if self._entries is None:
            m, d = self.m, self.d
            out = [0] * m**3
            for i, slab in enumerate(self.slabs):
                for jk, x in slab:
                    out[i * m * m + jk] = x if d == 1 else Fraction(x, d)
            self._entries = tuple(out)
        return self._entries

    @classmethod
    def zero(cls, m: int) -> "CubicMatrix":
        require_size(m)
        return cls._from_form(m, ((),) * m, 1)

    @classmethod
    def basis(cls, m: int, i: int, j: int, k: int) -> "CubicMatrix":
        """E(i, j, k): the single-entry matrix with a 1 at (i, j, k)."""
        require_indices((i, j, k), require_size(m), "index")
        one = (((j - 1) * m + k - 1, 1),)
        return cls._from_form(m, tuple(one if s == i else () for s in range(1, m + 1)), 1)

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
        require_indices((i, j, k), self.m, "index")
        return self.entries[((i - 1) * self.m + (j - 1)) * self.m + (k - 1)]

    def nonzero_items(self):
        """Tuple of (flat_index, value) over nonzero entries."""
        return tuple((idx, val) for idx, val in enumerate(self.entries) if val != 0)

    def is_zero(self) -> bool:
        return not any(self.slabs)

    def integer_multiple(self) -> "CubicMatrix":
        """self times the lcm of its denominators, a multiple with int entries."""
        return CubicMatrix._from_form(self.m, self.slabs, 1)

    def _require_same_size(self, other: "CubicMatrix"):
        if not isinstance(other, CubicMatrix):
            raise TypeError(f"expected a CubicMatrix, got {other!r}")
        same_size(self, other)

    def __add__(self, other):
        self._require_same_size(other)
        return CubicMatrix(self.m, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._require_same_size(other)
        return CubicMatrix(self.m, (a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, scalar) -> "CubicMatrix":
        require_rational(scalar)
        return CubicMatrix(self.m, (scalar * a for a in self.entries))

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def mul(self, other: "CubicMatrix", op: Operation) -> "CubicMatrix":
        """The product of self and other under the operation's multiplication.

        Slab i of the product takes each entry (l, k) of the left slab i times
        each entry (n, r) of the right slab k into (a(l, n), r), at offset
        ``op._row_plan()[l][n m + r]``.  The int sums over the product of the
        denominators, reduced by their gcd, are the product's form.

        The slot ``_pair`` names the right factor of self's last product.  From
        the second product with that same object on, the pair's table-free
        slice products S[i, l, n, r] = sum over k of X[i, l, k] Y[k, n, r] are
        kept there, and each product under a table only adds S[i, l, n, r]
        into (a(l, n), r): the same int sums, with no multiplication.
        """
        m = same_size(self, other, op)
        plan, sums = op._row_plan(), []
        pair = self._pair
        if pair is not None and pair[0] is other:
            if pair[1] is None:
                self._pair = pair = (other, _slice_products(self.slabs, other.slabs, m))
            for rows in pair[1]:
                out = [0] * (m * m) if rows else []
                for l, row_sums in rows:
                    for offset, v in zip(plan[l], row_sums):
                        out[offset] += v
                sums.append(out)
        else:
            self._pair, right = (other, None), other.slabs
            for slab in self.slabs:
                out = [0] * (m * m) if slab else []
                for lk, aval in slab:
                    row = plan[lk // m]
                    for nr, bval in right[lk % m]:
                        out[row[nr]] += aval * bval
                sums.append(out)
        d = self.d * other.d
        if d > 1 and (g := gcd(d, *(gcd(*out) for out in sums))) > 1:
            sums, d = [[x // g for x in out] for out in sums], d // g
        slabs = tuple(tuple([(jr, x) for jr, x in enumerate(out) if x]) for out in sums)
        return CubicMatrix._from_form(m, slabs, d)

    def plenary_power(self, n: int, op: Operation) -> "CubicMatrix":
        """n successive squarings under the operation's multiplication."""
        result = self
        for _ in range(require_count(n, "plenary power n")):
            result = result.mul(result, op)
        return result

    def __eq__(self, other):
        return isinstance(other, CubicMatrix) and (self.m, self.d, self.slabs) == (
            other.m, other.d, other.slabs
        )

    def __hash__(self):
        return hash((self.m, self.d, self.slabs))

    def __repr__(self):
        nz = ", ".join(
            f"({idx // (self.m * self.m) + 1},{(idx // self.m) % self.m + 1},{idx % self.m + 1})={val}"
            for idx, val in self.nonzero_items()
        )
        return f"CubicMatrix(m={self.m}, {{{nz or '0'}}})"


def _slabs_of(m: int, ints) -> tuple:
    """The slabs of m^3 ints in flat order: per first index, the nonzero
    (j m + k, int) pairs."""
    mm = m * m
    return tuple(
        tuple([(jk, x) for jk, x in enumerate(ints[i * mm : i * mm + mm]) if x]) for i in range(m)
    )


def _slice_products(left: tuple, right: tuple, m: int) -> tuple:
    """Per first index i, the slice products of two matrices' slabs as the
    (l, row) pairs whose row, S[i, l, n, r] at n m + r, is not all 0, where
    S[i, l, n, r] is the sum over k of left[i, l, k] right[k, n, r]: what
    every table's product adds up."""
    slices = []
    for slab in left:
        acc = [[0] * (m * m) for _ in range(m)] if slab else ()
        for lk, aval in slab:
            row = acc[lk // m]
            for nr, bval in right[lk % m]:
                row[nr] += aval * bval
        slices.append(tuple((l, row) for l, row in enumerate(acc) if any(row)))
    return tuple(slices)
