"""Exact Gaussian elimination over the rationals.

Matrices are lists of row lists.  ``rref``, ``rank``, ``kernel_basis`` and
``det`` share one fraction-free (Bareiss) Gauss-Jordan elimination, whose
forward half ``first_dependent_column`` runs up to the first pivotless column.
Rows are scaled to ints (``scalars.integral``; all-int rows, such as every
zero-divisor block, in one scan), so every division is exact with ``//``.
Entries become ``Fraction`` only when normalized.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .scalars import integral


def _integral_rows(rows):
    """Int-scaled rows and the product of their scales."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return list(rows), 1
    mat, scale = [], 1
    for row in rows:
        ints, d = integral(row)
        mat.append(ints)
        scale *= d
    return mat, scale


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of the int-scaled rows.

    A pivot p at (r, c) replaces every other row by (p * row - row[c] * row_r)
    over the previous pivot.  Every entry stays a minor of the scaled matrix,
    so the division is exact, and every pivot entry ends equal to the last
    pivot.  Returns the rows, the pivot columns, the sign of the row swaps
    and the product of the row scales.
    """
    mat, scale = _integral_rows(rows)
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
    return mat, pivots, sign, scale


def first_dependent_column(rows) -> tuple[int | None, list[int]]:
    """The first column that depends on those before it (the first without a
    pivot in ``rref(rows)``), or None, and the indices of the rows that took
    the pivots before it: the forward half of ``_eliminate``, removing each
    pivot row and keeping the other rows from the next column on."""
    mat, _ = _integral_rows(rows)
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
    mat, pivots, _, _ = _eliminate(rows)
    d = mat[0][pivots[0]] if pivots else 1
    # nearly every entry of a Gauss-Jordan form is 0 or the pivot value
    common = {0: Fraction(0), d: Fraction(1)}
    return [[common[x] if x in common else Fraction(x, d) for x in row] for row in mat], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows):
    """Exact determinant: the last diagonal entry of the fraction-free form,
    signed by the row swaps, over the product of the row scales."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    if not rows:
        return Fraction(1)
    mat, _, sign, scale = _eliminate(rows)
    return Fraction(sign * mat[-1][-1], scale)


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
