"""Exact Gaussian elimination over the rationals.

Matrices are lists of row lists.  One fraction-free (Bareiss) forward pass
serves all.  It pulls the columns one at a time and reduces each against
the pivots found before it (left-looking), so a caller that stops it reads
no column after that point: ``first_dependent_int_column`` stops it at the
first pivotless column and returns the pivot rows it has reduced, taking
int columns from any iterator, such as a generator that makes each column
only when it is pulled; a zero-divisor solve reads its kernel vector off
column f of ``rref`` of those rows, and scales it to ints once.  ``det``
reads its last pivot, ``rank`` counts the pivots, and ``rref`` (so
``kernel_basis``) ends with back substitution on the pivot rows.  Rows are
scaled to ints (``scalars.integral``; all-int rows in one scan), so every
division is exact with ``//``; entries become ``Fraction`` only when
normalized.  ``matmul`` is the product of the m x m accompanying algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .scalars import integral

_ZERO, _ONE = Fraction(0), Fraction(1)  # rref's entries; a Fraction is immutable


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


def _forward(columns):
    """Fraction-free forward elimination of the matrix with these int columns,
    pulled one at a time (left-looking): no column after the one the caller
    stops at is read.

    Yields, for each column, None when no row left is nonzero there, else the
    position of the first such row among the rows left and that pivot row
    from the column on, a list that grows as later columns are pulled; the
    row is then dropped.  A row keeps the pivot q it was last reduced by and
    stands for row * prev / q, prev the last pivot.  A step keeps the rows
    left whose entry r in its pivot column is nonzero, with their q.  Each
    pulled column first replays the steps in order: it pops the pivot row's
    entry t, rescales it by prev / q when that row's q != prev, appends it to
    the pivot row, and gives each kept row (p * x - r * t) // q, exact as
    every true entry is a minor; the other rows keep x.  A step whose rows
    left were all 0 in its pivot column (as in an upper-triangular matrix)
    replays as the pop and the append only.
    """
    steps, qs, prev = [], None, 1
    for col in columns:
        col = list(col)
        if qs is None:
            qs = [1] * len(col)
        for k, scale, top, p, under in steps:
            t = col.pop(k)
            if scale is not None:
                t = t * scale[0] // scale[1]
            top.append(t)
            for i, r, q in under:
                col[i] = (p * col[i] - r * t) // q
        k = next((k for k, x in enumerate(col) if x), None)
        if k is None:
            yield None
            continue
        q, p = qs.pop(k), col.pop(k)
        scale = None if q == prev else (prev, q)
        if scale is not None:
            p = p * prev // q
        top = [p]
        under = [(i, r, qs[i]) for i, r in enumerate(col) if r]
        for i, _, _ in under:
            qs[i] = p
        steps.append((k, scale, top, p, under))
        yield k, top
        prev = p


def first_dependent_int_column(columns) -> tuple[int | None, list[list[int]]]:
    """The first column f that depends on those before it (the first without a
    pivot in the rref) of the matrix with these int columns, and the f pivot
    rows the forward pass has reduced by then, cut to columns 0..f: row i is 0
    before column i and nonzero at it, and the rows have the rref of the first
    f + 1 columns.  (None, []) when every column has a pivot.  The columns are
    pulled one at a time: none after column f is read, or made."""
    tops = []
    for c, step in enumerate(_forward(columns)):
        if step is None:
            return c, [[0] * i + top for i, top in enumerate(tops)]
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
    reduced = [[_ZERO] * len(row) for row in mat]
    pivots, tops = [], []
    for j, step in enumerate(_forward(zip(*mat))):
        if step is not None:
            reduced[len(pivots)][j] = _ONE
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
    """The number of pivots of the forward pass."""
    mat, _ = _integral_rows(rows)
    return sum(step is not None for step in _forward(zip(*mat)))


def det(rows):
    """Exact determinant: the last pivot of the forward pass, signed by the
    parity of the pivot positions, over the product of the row scales; 0 at
    the first column without a pivot."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    mat, scale = _integral_rows(rows)
    sign, p = 1, 1
    for step in _forward(zip(*mat)):
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
