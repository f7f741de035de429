"""Exact Gaussian elimination over any field scalar.

Matrices are lists of row lists.  ``rref``, ``rank``, ``kernel_basis`` and
``det`` share one fraction-free (Bareiss) Gauss-Jordan elimination, whose
forward half ``first_dependent_column`` runs up to the first pivotless column.
Rational rows are scaled to ints (``scalars.integral``; all-int rows, such
as every zero-divisor block, in one scan) and a matrix with prime-field
elements is lifted into their field, ints included; both divide exactly with
``//``.  Rationals become ``Fraction`` only when normalized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import truediv

from .scalars import integral


def _integral_rows(rows):
    """Int-scaled (or field-lifted) rows, the product of their scales, and whether rational."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return list(rows), 1, True
    mat, scale = [], 1
    for row in rows:
        ints, d = integral(row)
        mat.append(ints)
        scale *= d
    field = next((x for row in mat for x in row if type(x) is not int), None)
    if field is not None:  # lift the int entries, or an int pivot would floor-divide
        one = field * 0 + 1
        mat = [[one * x for x in row] for row in mat]
    return mat, scale, field is None


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of the int-scaled rows.

    A pivot p at (r, c) replaces every other row by (p * row - row[c] * row_r)
    over the previous pivot.  Every entry stays a minor of the scaled matrix,
    so the division is exact, and every pivot entry ends equal to the last
    pivot.  Returns the rows, the pivot columns, the sign of the row swaps,
    the product of the row scales, and the normalizing division.
    """
    mat, scale, rational = _integral_rows(rows)
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot_row = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            sign = -sign
        top = mat[r]
        p = top[c]
        for k, row in enumerate(mat):
            if k != r:
                f = row[c]
                mat[k] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return mat, pivots, sign, scale, (Fraction if rational else truediv)


def first_dependent_column(rows) -> tuple[int | None, list[int]]:
    """The first column that depends on those before it (the first without a
    pivot in ``rref(rows)``), or None, and the indices of the rows that took
    the pivots before it: the forward half of ``_eliminate``, removing each
    pivot row and keeping the other rows from the next column on."""
    mat, _, _ = _integral_rows(rows)
    left, used = list(range(len(mat))), []
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        pivot_row = next((k for k, row in enumerate(mat) if row[0] != 0), None)
        if pivot_row is None:
            return c, used
        used.append(left.pop(pivot_row))
        top = mat.pop(pivot_row)
        p, tail = top[0], top[1:]
        for k, row in enumerate(mat):
            mat[k] = [(p * a - row[0] * b) // prev for a, b in zip(row[1:], tail)]
        prev = p
    return None, used


def rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    mat, pivots, _, _, normalize = _eliminate(rows)
    d = mat[0][pivots[0]] if pivots else 1
    # nearly every entry of a Gauss-Jordan form is 0 or the pivot value
    common = {0: normalize(0, d), d: normalize(d, d)}
    return [[common[x] if x in common else normalize(x, d) for x in row] for row in mat], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows):
    """Exact determinant: the last diagonal entry of the fraction-free form,
    signed by the row swaps, over the product of the row scales."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    if not rows:
        return Fraction(1)
    mat, _, sign, scale, normalize = _eliminate(rows)
    return normalize(sign * mat[-1][-1], scale)


def kernel_basis(rows) -> list[list]:
    """A basis of the right null space; empty when the kernel is trivial.

    Each vector has a 1 in one free column and the negated reduced entries in
    the pivot columns, so the basis is exact and deterministic.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    mat, pivots = rref(rows)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        vec: list = [0] * n_cols
        vec[f] = 1
        for r, c in enumerate(pivots):
            if mat[r][f] != 0:
                vec[c] = -mat[r][f]
        basis.append(vec)
    return basis
