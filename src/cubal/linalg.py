"""Exact Gaussian elimination over any field scalar.

Matrices are lists of row lists.  ``rref``, ``rank``, ``kernel_basis`` and
``det`` share one fraction-free (Bareiss) Gauss-Jordan elimination.  Rational
rows are scaled to ints (``scalars.integral``) and divided exactly with ``//``;
a matrix with prime-field elements is lifted into their field, ints included,
and divides with ``/``.
Rationals become ``Fraction`` only when the pivot rows are normalized.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv, truediv

from .scalars import integral


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of the int-scaled rows.

    A pivot p at (r, c) replaces every other row by (p * row - row[c] * row_r)
    over the previous pivot.  Every entry stays a minor of the scaled matrix,
    so the division is exact, and every pivot entry ends equal to the last
    pivot.  Returns the rows, the pivot columns, the sign of the row swaps,
    the product of the row scales, and the normalizing division.
    """
    mat, scale = [], 1
    for row in rows:
        ints, d = integral(row)
        mat.append(ints)
        scale *= d
    field = next((x for row in mat for x in row if type(x) is not int), None)
    rational = field is None
    div = floordiv if rational else truediv
    if not rational:  # lift the int entries, or an int pivot would divide as float
        one = field * 0 + 1
        mat = [[one * x for x in row] for row in mat]
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
                mat[k] = [div(p * a - f * b, prev) for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return mat, pivots, sign, scale, (Fraction if rational else truediv)


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
