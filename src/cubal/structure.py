"""Structural maps of cubic-matrix algebras.

Covers the basis-relabeling isomorphisms between equivalent operations, the
multiplicative-linear-form (character) decision procedure, exact
zero-divisor solvers (an m^2 x m^2 block whose columns are made from the
fixed factor's int form one at a time, as the forward pass pulls them, up
to the first dependent one; a right column adds a slab through the
product's own row offsets), and the kernel ideal of the accompanying
surjection.  ``_fiber_sums`` is the one place the middle-index fiber sums
are taken, on the int form; ``in_kernel_ideal`` and ``accompanying_image``
(onto the accompanying algebra, m x m rows under ``linalg``) read them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .cubic import CubicMatrix
from .errors import same_size
from .linalg import first_dependent_int_column, rref
from .operations import Operation, Permutation
from .scalars import integral


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
    sums, d = _fiber_sums(x), x.d
    if d != 1:
        sums = [[Fraction(s, d) if s else 0 for s in row] for row in sums]
    return AccompanyingElement(tuple(map(tuple, sums)))


def _fiber_sums(x: CubicMatrix) -> list[list[int]]:
    """The middle-index fiber sums of x's int form: d times phi(x)'s rows."""
    m, sums = x.m, [[0] * x.m for _ in range(x.m)]
    for row, slab in zip(sums, x.slabs):
        for jk, v in slab:
            row[jk % m] += v
    return sums


def permute_indices(pi: Permutation, x: CubicMatrix) -> CubicMatrix:
    """Linear extension of E(i, j, k) -> E(pi(i), pi(j), pi(k))."""
    m, img = same_size(pi, x), pi.images
    entries = [0] * (m * m * m)
    for flat, val in x.nonzero_items():
        i0, rem = divmod(flat, m * m)
        j0, k0 = divmod(rem, m)
        entries[((img[i0] - 1) * m + (img[j0] - 1)) * m + (img[k0] - 1)] = val
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
    same_size(a, b, pi)
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
    same_size(chi, a)
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


def _block_columns(fixed: CubicMatrix, op: Operation, side: str):
    """The columns of the m^2 x m^2 block that ``_solve_zero_product`` solves,
    in order, each made by the triple rule only when it is pulled: right, slab
    k through ``op._row_plan()[l]``, as ``mul`` adds it; left, A[i, l, k] at
    i m - 1 + a(l, n), a read off the 1-based ``op.rows``.  Left rows ordered
    (a(l, n), i), the plan's order, made the forward pass 12-21% slower."""
    m = fixed.m
    if side == "left":
        k_terms = [[] for _ in range(m)]
        for i, slab in enumerate(fixed.slabs):
            for lk, val in slab:
                k_terms[lk % m].append((i * m - 1, op.rows[lk // m], val))
        for terms in k_terms:
            for n in range(m):
                col = [0] * (m * m)
                for base, row, val in terms:
                    col[base + row[n]] += val
                yield col
    else:
        for plan in op._row_plan():
            for slab in fixed.slabs:
                col = [0] * (m * m)
                for nr, val in slab:
                    col[plan[nr]] += val
                yield col


def _solve_zero_product(
    fixed: CubicMatrix, op: Operation, side: str
) -> CubicMatrix | None:
    """A nonzero X with fixed * X = 0 (side="left") or X * fixed = 0 (side="right").

    The outer index of X away from fixed passes through the product, so on
    flat coordinates X -> fixed * X is M (x) I_m and X -> X * fixed is
    I_m (x) N.  The m^2 x m^2 block M (N) acts on the slice r = 1 (i = 1).
    By the triple rule on A, the int multiple of fixed (its slabs, the same
    kernel): left, column (k, n) holds A[i, l, k] at row (i, a(l, n)); right,
    column (l, k) holds A[k, n, r] at row (a(l, n), r), where ``mul`` adds
    it.  As rref(M (x) I) = rref(M) (x) I, its first kernel vector, placed
    on that same slice, is exactly the first kernel vector of the whole
    m^3 x m^3 map.  That vector is 1 at the first pivotless column f, minus
    the reduced column f before it, 0 after.  Row operations act on each
    column prefix alone and the reduced form is unique, so the rref of the
    first f + 1 columns is the prefix of rref(M): its kernel vector, padded
    with 0s, is the same in value and type.  So ``_block_columns`` makes
    each column only when the forward pass pulls it, and the pass stops at
    f: columns after f are never made.  f is often small.  When Cayley columns
    n' < n agree, left columns (k, n') and (k, n) are equal, so f is at most
    (1, n); when rows l' < l agree, right columns (l', k) and (l, k) are, so
    f is at most (l, 1).  The pass has already reduced the f pivot rows of
    the prefix, so ``rref`` only finishes them (one zero row when f = 0).
    The witness's int form is made from the vector's f + 1 entries, scaled
    once; its entries keep their types (1 at f, Fractions or int 0 before).
    """
    m = same_size(fixed, op)
    f, prefix = first_dependent_int_column(_block_columns(fixed, op, side))
    if f is None:
        return None
    vec = [-row[f] if row[f] else 0 for row in rref(prefix or [[0]])[0][:f]] + [1]
    step = m if side == "left" else 1  # vec[t] is at flat index t * step
    ints, d = integral(vec)
    slabs, entries = [[] for _ in range(m)], [0] * (m * m * m)
    entries[: (f + 1) * step : step] = vec
    for t, v in enumerate(ints):
        if v:
            slabs[t * step // (m * m)].append((t * step % (m * m), v))
    return CubicMatrix._from_form(m, tuple(map(tuple, slabs)), d, tuple(entries))


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
    return not any(map(any, _fiber_sums(x)))


def _basis_product_triple(op: Operation, s, t):
    """The product E(s) E(t) as a triple, or None when it vanishes."""
    if s[2] != t[0]:
        return None
    return (s[0], op.rows[s[1] - 1][t[1] - 1], t[2])
