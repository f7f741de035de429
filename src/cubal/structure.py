"""Structural maps of cubic-matrix algebras.

Covers the basis-relabeling isomorphisms between equivalent operations, the
multiplicative-linear-form (character) decision procedure, exact
zero-divisor solvers (an m^2 x m^2 block, filled by one loop over the fixed
factor's int form and reduced up to its first dependent column), and the
kernel ideal of the accompanying surjection.  ``accompanying_image``, the
surjection onto the accompanying algebra, is the one place the middle-index
fiber sums are taken; the algebra itself is m x m rows under ``linalg``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .cubic import CubicMatrix
from .linalg import first_dependent_column, kernel_basis
from .operations import Operation, Permutation


class AccompanyingElement(NamedTuple):
    """phi(x) as its coefficient rows: m tuples of m ints or Fractions.

    The accompanying algebra is m x m rows under ``linalg`` (``matmul``,
    ``det``).  This record is kept only because perfbench's workloads read
    ``accompanying_image(x).coeffs``; otherwise phi would return the rows.
    """

    coeffs: tuple


def accompanying_image(x: CubicMatrix) -> AccompanyingElement:
    """The canonical surjection onto the matrix-unit algebra.

    Maps E(i, n, j) to u(i, j); on a general matrix the (i, j) coefficient
    is the middle-index fiber sum, so the coefficient matrix is the
    accompanying matrix of x.  This is an algebra homomorphism for every
    operation's multiplication.  The sums run on x's int form.
    """
    m, d = x.m, x.d
    sums = [[0] * m for _ in range(m)]
    for row, slab in zip(sums, x.slabs):
        for jk, v in slab:
            row[jk % m] += v
    if d != 1:
        sums = [[Fraction(s, d) if s else 0 for s in row] for row in sums]
    return AccompanyingElement(tuple(map(tuple, sums)))


def permute_indices(pi: Permutation, x: CubicMatrix) -> CubicMatrix:
    """Linear extension of E(i, j, k) -> E(pi(i), pi(j), pi(k))."""
    m = x.m
    if pi.m != m:
        raise ValueError("size mismatch")
    entries = [0] * (m * m * m)
    for flat, val in x.nonzero_items():
        i0, rem = divmod(flat, m * m)
        j0, k0 = divmod(rem, m)
        entries[
            ((pi(i0 + 1) - 1) * m + (pi(j0 + 1) - 1)) * m + (pi(k0 + 1) - 1)
        ] = val
    return CubicMatrix(m, entries)


def verify_isomorphism(a: Operation, b: Operation, pi: Permutation) -> bool:
    """Check that relabeling by pi carries the product of a onto the product of b.

    True iff f(X *_a Y) = f(X) *_b f(Y) for all basis pairs, where f is the
    basis relabeling E(s) -> E(pi(s)); this must hold when act(pi, a) = b.
    E(s) E(t) vanishes unless s3 = t1, and pi(s3) = pi(t1) exactly when
    s3 = t1 because pi is a bijection, so those pairs vanish on both sides.
    Otherwise the triple rule gives f(E(i,j,k) E(k,n,r)) = E(pi(i),
    pi(a(j,n)), pi(r)) and E(pi(i),pi(j),pi(k)) E(pi(k),pi(n),pi(r)) =
    E(pi(i), b(pi(j),pi(n)), pi(r)); the outer indices always agree, so the
    m^5 pair identities hold exactly when b(pi(j), pi(n)) = pi(a(j, n)) for
    all j, n, and those m^2 identities are what is computed.
    """
    m = a.m
    if b.m != m or pi.m != m:
        raise ValueError("size mismatch")
    img, brows = pi.images, b.rows
    return all(
        brows[img[j] - 1][img[n] - 1] == img[v - 1]
        for j, row in enumerate(a.rows)
        for n, v in enumerate(row)
    )


def is_character(chi: CubicMatrix, a: Operation) -> bool:
    """True iff the linear form with coefficients chi (chi(E(s)) = chi.entry(*s))
    is nonzero and multiplicative on every basis pair.

    Bilinearity of the product and linearity of chi make the basis check
    sufficient: chi(E(s)) chi(E(t)) must equal chi of the basis product
    E(s) E(t), which is 0 when the product vanishes.
    """
    if chi.m != a.m:
        raise ValueError("size mismatch")
    if chi.is_zero():
        return False
    c = chi.entry
    triples = list(itertools.product(range(1, a.m + 1), repeat=3))
    for s in triples:
        left = c(*s)
        for t in triples:
            prod = _basis_product_triple(a, s, t)
            if left * c(*t) != (0 if prod is None else c(*prod)):
                return False
    return True


def character_search(a: Operation) -> list[CubicMatrix]:
    """All characters (nonzero multiplicative linear forms) of the algebra of a,
    each as the cubic matrix of its coefficients.

    The multiplicativity equations collapse quickly: coefficients with
    distinct outer indices square to zero, so the support lies on entries
    (k, j, k) of a single slice k0, where the values satisfy
    b(j) b(n) = b(a(j, n)).  For m >= 2 pairing the slice against any other
    slice k != k0 forces b(a(j, n)) = 0, so every b(j)^2 = 0 and the form
    vanishes.  For m = 1 the single coefficient solves c^2 = c, whose only
    nonzero root is 1.
    """
    if a.m >= 2:
        return []
    unit = CubicMatrix.basis(1, 1, 1, 1)
    assert is_character(unit, a)
    return [unit]


def _zero_product_block(fixed: CubicMatrix, op: Operation, side: str) -> list[list]:
    """The m^2 x m^2 block that ``_solve_zero_product`` solves, by the triple rule."""
    m = fixed.m
    a = [[x - 1 for x in row] for row in op.rows]
    block = [[0] * (m * m) for _ in range(m * m)]
    for s, slab in enumerate(fixed.slabs):
        for tu, val in slab:
            t, u = divmod(tu, m)
            if side == "left":  # A[i, l, k] = A[s, t, u]: row (i, a(l, n)), column (k, n)
                for n, v in enumerate(a[t]):
                    block[s * m + v][u * m + n] += val
            else:  # A[k, n, r] = A[s, t, u]: row (a(l, n), r), column (l, k)
                for l, row in enumerate(a):
                    block[row[t] * m + u][l * m + s] += val
    return block


def _solve_zero_product(
    fixed: CubicMatrix, op: Operation, side: str
) -> CubicMatrix | None:
    """A nonzero X with fixed * X = 0 (side="left") or X * fixed = 0 (side="right").

    The outer index of X away from fixed passes through the product, so on
    flat coordinates X -> fixed * X is M (x) I_m and X -> X * fixed is
    I_m (x) N.  The m^2 x m^2 block M (N) acts on the slice r = 1 (i = 1) and
    is built in one pass over A, the int multiple of fixed (its slabs, the
    same kernel), by the triple rule: left, A[i, l, k] adds to row
    (i, a(l, n)), column (k, n), for every n; right, A[k, n, r] adds to row
    (a(l, n), r), column (l, k), for every l.  As rref(M (x) I) =
    rref(M) (x) I, its first kernel vector, placed on that same slice, is
    exactly the first kernel vector of the whole m^3 x m^3 map.  That vector
    is 1 at the first pivotless column f, minus the reduced column f before
    it, 0 after.  Row operations act on each column prefix alone and the
    reduced form is unique, so the rref of the first f + 1 columns is the
    prefix of rref(M): its kernel vector, padded with 0s, is the same in value and type.
    The forward pass that finds f has already reduced the f pivot rows of
    that prefix, so ``kernel_basis`` only finishes them (one zero row when f = 0).
    """
    m = fixed.m
    if op.m != m:
        raise ValueError("size mismatch")
    f, prefix = first_dependent_column(_zero_product_block(fixed, op, side))
    if f is None:
        return None
    entries = [0] * (m * m * m)
    vec = kernel_basis(prefix or [[0]])[0] + [0] * (m * m - f - 1)
    entries[slice(None, None, m) if side == "left" else slice(m * m)] = vec
    return CubicMatrix(m, entries)


def left_zero_divisor_witness(a_mat: CubicMatrix, op: Operation) -> CubicMatrix | None:
    """A nonzero X with a_mat * X = 0, if one exists.

    X -> a_mat * X leaves the last index of X alone, so the witness is an
    exact kernel vector of its m^2 x m^2 block, supported on E(k, n, 1).
    """
    return _solve_zero_product(a_mat, op, "left")


def right_zero_divisor_witness(a_mat: CubicMatrix, op: Operation) -> CubicMatrix | None:
    """A nonzero X with X * a_mat = 0, if one exists.

    X -> X * a_mat leaves the first index of X alone, so the witness is an
    exact kernel vector of its m^2 x m^2 block, supported on E(1, l, k).
    """
    return _solve_zero_product(a_mat, op, "right")


def in_kernel_ideal(x: CubicMatrix) -> bool:
    """True iff every middle-index fiber sum of x vanishes.

    These matrices form the kernel of the accompanying surjection and hence
    a two-sided ideal for every operation's multiplication.
    """
    return not any(map(any, accompanying_image(x).coeffs))


def _basis_product_triple(op: Operation, s, t):
    """The product E(s) E(t) as a triple, or None when it vanishes."""
    if s[2] != t[0]:
        return None
    return (s[0], op.rows[s[1] - 1][t[1] - 1], t[2])
