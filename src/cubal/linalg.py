"""Exact Gaussian elimination over the rationals.

Matrices are lists of row lists.  One fraction-free (Bareiss) forward pass
serves all: ``first_dependent_column`` stops it at the first pivotless column
and returns the pivot rows it has reduced, ``det`` reads its last pivot, and
``rref`` (so ``rank`` and ``kernel_basis``) ends with back substitution on
the pivot rows.  Rows are scaled to ints (``scalars.integral``; all-int rows
in one scan), so every division is exact with ``//``.  Entries become
``Fraction`` only when normalized.  ``matmul`` is the product of the m x m
accompanying algebra, whose elements are these rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .scalars import integral


def _integral_rows(rows):
    """Int-scaled rows and the product of their scales; ragged rows raise."""
    if len(widths := set(map(len, rows))) > 1:
        raise ValueError(f"ragged rows, of lengths {sorted(widths)}")
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, 1
    mat, scale = [], 1
    for row in rows:
        ints, d = integral(row)
        mat.append(ints)
        scale *= d
    return mat, scale


def _forward(mat):
    """Fraction-free forward elimination of the int rows ``mat``.

    Yields, for each column, None when no row left is nonzero there, else the
    position of the first such row among the rows left and that row from the
    column on; it and the column are then dropped.  A row keeps the pivot q it
    was last reduced by and stands for row * prev / q, prev the last pivot.
    Under pivot row t, its nonzero r = row[0] makes it (t[0] * row - r * t) // q,
    exact as every true entry is a minor; a row that is 0 there is only cut.
    """
    rows, prev = [(1, row) for row in mat], 1
    for _ in range(len(mat[0]) if mat else 0):
        k = next((k for k, (_, row) in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [(q, row[1:]) for q, row in rows]
            yield None
            continue
        q, top = rows.pop(k)
        top = top if q == prev else [a * prev // q for a in top]
        yield k, top
        p, tail = top[0], top[1:]
        for i, (q, row) in enumerate(rows):
            r = row[0]
            if r:
                rows[i] = p, [(p * a - r * b) // q for a, b in zip(row[1:], tail)]
            else:
                rows[i] = q, row[1:]
        prev = p


def first_dependent_column(rows) -> tuple[int | None, list[list[int]]]:
    """The first column f that depends on those before it (the first without a
    pivot in ``rref(rows)``), and the f pivot rows the forward pass has reduced
    by then, cut to columns 0..f: row i is 0 before column i and nonzero at it,
    and the rows have the rref of the first f + 1 columns.  (None, []) when
    every column has a pivot."""
    mat, _ = _integral_rows(rows)
    tops = []
    for c, step in enumerate(_forward(mat)):
        if step is None:
            return c, [[0] * i + top[: c + 1 - i] for i, top in enumerate(tops)]
        tops.append(step[1])
    return None, []


def rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivot row i leaves the forward pass as U_i, from its pivot column c_i on.
    In a column j without a pivot, with d the last pivot before j, its reduced
    entry times d is y_i = (d U_i[j] - sum over h > i of U_i[c_h] y_h) / U_i[c_i],
    an integer (a Cramer numerator over d), so the division is exact.
    """
    mat, _ = _integral_rows(rows)
    reduced = [[Fraction(0)] * len(row) for row in mat]
    pivots, tops = [], []
    for j, step in enumerate(_forward(mat)):
        if step is not None:
            reduced[len(pivots)][j] = Fraction(1)
            pivots.append(j)
            tops.append(step[1])
            continue
        y, d = [0] * len(pivots), tops[-1][0] if tops else 1
        for i in reversed(range(len(pivots))):
            top, c = tops[i], pivots[i]
            s = sum(top[pivots[h] - c] * y[h] for h in range(i + 1, len(y)))
            y[i] = (d * top[j - c] - s) // top[0]
            if y[i]:
                reduced[i][j] = Fraction(y[i], d)
    return reduced, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows):
    """Exact determinant: the last pivot of the forward pass, signed by the
    parity of the pivot positions, over the product of the row scales; 0 at
    the first column without a pivot."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    mat, scale = _integral_rows(rows)
    sign, p = 1, 1
    for step in _forward(mat):
        if step is None:
            return Fraction(0)
        sign, p = (-sign if step[0] % 2 else sign), step[1][0]
    return Fraction(sign * p, scale)


def matmul(p, q) -> tuple[tuple, ...]:
    """The product of the rows p and q, as row tuples; ragged rows in q, or a
    row of p whose length is not the number of rows of q, raise ``ValueError``."""
    cols = tuple(zip(*q, strict=True))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col, strict=True)) for col in cols) for row in p
    )


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
