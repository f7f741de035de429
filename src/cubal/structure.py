"""Structural maps of cubic-matrix algebras.

Covers the basis-relabeling isomorphisms between equivalent operations, the
multiplicative-linear-form (character) decision procedure, exact
zero-divisor solvers (an m^2 x m^2 block, reduced up to its first dependent
column), and the subalgebras and ideals spanned by basis matrices.  It also
holds the accompanying algebra: ``AccompanyingElement`` is the library's one
m x m matrix type, and ``accompanying_image``, the surjection onto it, is
the one place the middle-index fiber sums are taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cubic import CubicMatrix
from .errors import FormatError
from .linalg import det, first_dependent_column, kernel_basis
from .operations import (
    Operation,
    Permutation,
    image,
    invariance_violation,
)


class AccompanyingElement:
    """An element of the matrix-unit algebra on units u(i, j), i, j in I.

    Units multiply by u(i, j) u(k, l) = u(i, l) when j = k and vanish
    otherwise, so coefficient matrices compose like ordinary m x m matrices.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(tuple(row) for row in coeffs)
        m = len(coeffs)
        if any(len(row) != m for row in coeffs):
            raise FormatError("coefficient matrix must be m x m")
        self.coeffs = coeffs

    @classmethod
    def unit(cls, m: int, i: int, j: int) -> "AccompanyingElement":
        """The basis unit u(i, j)."""
        for idx in (i, j):
            if not 1 <= idx <= m:
                raise FormatError(f"index {idx} outside 1..{m}")
        rows = [[0] * m for _ in range(m)]
        rows[i - 1][j - 1] = 1
        return cls(rows)

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def mul(self, other: "AccompanyingElement") -> "AccompanyingElement":
        """Bilinear extension of the unit rule; matrix product of coefficients."""
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        m = self.m
        return AccompanyingElement(
            tuple(
                tuple(
                    sum(self.coeffs[i][j] * other.coeffs[j][l] for j in range(m))
                    for l in range(m)
                )
                for i in range(m)
            )
        )

    def __add__(self, other):
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return AccompanyingElement(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.coeffs, other.coeffs)
            )
        )

    def det(self):
        return det([list(row) for row in self.coeffs])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.coeffs for x in row)

    def __eq__(self, other):
        return isinstance(other, AccompanyingElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"AccompanyingElement({[list(r) for r in self.coeffs]})"


def accompanying_image(x: CubicMatrix) -> AccompanyingElement:
    """The canonical surjection onto the matrix-unit algebra.

    Maps E(i, n, j) to u(i, j); on a general matrix the (i, j) coefficient
    is the middle-index fiber sum, so the coefficient matrix is the
    accompanying matrix of x.  This is an algebra homomorphism for every
    operation's multiplication.
    """
    m = x.m
    e = x.entries
    return AccompanyingElement(
        [sum(e[(i * m + n) * m + j] for n in range(m)) for j in range(m)]
        for i in range(m)
    )


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
    idx = range(1, m + 1)
    return all(b(pi(j), pi(n)) == pi(a(j, n)) for j in idx for n in idx)


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
    if side == "left":  # A[i, l, k]: row (i, a(l, n)), column (k, n)
        cells = lambda i, l, k: [(i * m + a[l][n], k * m + n) for n in range(m)]
    else:  # A[k, n, r]: row (a(l, n), r), column (l, k)
        cells = lambda k, n, r: [(a[l][n] * m + r, l * m + k) for l in range(m)]
    block = [[0] * (m * m) for _ in range(m * m)]
    for flat, val in fixed.integer_multiple().nonzero_items():
        for r, c in cells(flat // (m * m), flat // m % m, flat % m):
            block[r][c] += val
    return block


def _solve_zero_product(
    fixed: CubicMatrix, op: Operation, side: str
) -> CubicMatrix | None:
    """A nonzero X with fixed * X = 0 (side="left") or X * fixed = 0 (side="right").

    The outer index of X away from fixed passes through the product, so on
    flat coordinates X -> fixed * X is M (x) I_m and X -> X * fixed is
    I_m (x) N.  The m^2 x m^2 block M (N) acts on the slice r = 1 (i = 1) and
    is built in one pass over the entries of A, the int multiple of fixed
    (the same kernel), by the triple rule: left, A[i, l, k] adds to row
    (i, a(l, n)), column (k, n), for every n; right, A[k, n, r] adds to row
    (a(l, n), r), column (l, k), for every l.  As rref(M (x) I) =
    rref(M) (x) I, its first kernel vector, placed on that same slice, is
    exactly the first kernel vector of the whole m^3 x m^3 map.  That vector
    is 1 at the first pivotless column f, minus the reduced column f before
    it, 0 after.  Row operations act on each column prefix alone and the
    reduced form is unique, so the rref of the first f + 1 columns is the
    prefix of rref(M): its kernel vector, padded with 0s, is the same in value and type.
    """
    m = fixed.m
    if op.m != m:
        raise ValueError("size mismatch")
    block = _zero_product_block(fixed, op, side)
    f = first_dependent_column(block)
    if f is None:
        return None
    entries = [0] * (m * m * m)
    vec = kernel_basis([row[: f + 1] for row in block])[0] + [0] * (m * m - f - 1)
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


@dataclass(frozen=True)
class SpannedSubspace:
    """The span of a set of basis matrices, identified by their index triples."""

    m: int
    triples: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        for (i, j, k) in self.triples:
            for idx in (i, j, k):
                if not 1 <= idx <= self.m:
                    raise FormatError(f"triple ({i},{j},{k}) outside 1..{self.m}")


def subalgebra_span(op: Operation, members, i: int, k: int) -> SpannedSubspace:
    """The span of {E(i, j, k): j in members} for an invariant subset.

    Closed under the product because a(j, n) stays in the subset; the
    product is identically zero unless i = k.
    """
    m = op.m
    if not 1 <= i <= m or not 1 <= k <= m:
        raise FormatError(f"block indices ({i},{k}) outside 1..{m}")
    J = frozenset(members)
    if not J:
        raise ValueError("subset must be nonempty")
    violation = invariance_violation(J, op)
    if violation is not None:
        s, t, v = violation
        raise ValueError(f"subset is not invariant: a({s},{t}) = {v} escapes it")
    return SpannedSubspace(m, frozenset((i, j, k) for j in J))


def image_ideal_span(op: Operation) -> SpannedSubspace:
    """The span of all E(i, j, k) whose middle index lies in the image of op."""
    m = op.m
    J = image(op)
    return SpannedSubspace(
        m,
        frozenset(
            (i, j, k)
            for i in range(1, m + 1)
            for j in sorted(J)
            for k in range(1, m + 1)
        ),
    )


def in_kernel_ideal(x: CubicMatrix) -> bool:
    """True iff every middle-index fiber sum of x vanishes.

    These matrices form the kernel of the accompanying surjection and hence
    a two-sided ideal for every operation's multiplication.
    """
    return accompanying_image(x).is_zero()


def _basis_product_triple(op: Operation, s, t):
    """The product E(s) E(t) as a triple, or None when it vanishes."""
    if s[2] != t[0]:
        return None
    return (s[0], op(s[1], t[1]), t[2])


def is_subalgebra(span: SpannedSubspace, op: Operation) -> bool:
    """True iff every product of two spanning basis matrices stays in the span.
    Only pairs E(s) E(t) with s3 = t1 are tried, as the rest vanish: this is
    the right-ideal loop of ``_absorbs`` with the span as its own factors."""
    return _absorbs(span, op, "right", span.triples)


def _absorbs(span: SpannedSubspace, op: Operation, side: str, factors) -> bool:
    """True iff every factor times a span member (side="left") or every span
    member times a factor (side="right") stays in the span.

    E(s) E(t) vanishes unless s3 = t1, and zero lies in every span, so only
    meeting pairs are visited: the factors are indexed once by their last
    (left) or first (right) index, m^2 per member when they are all m^3
    basis matrices.  The triple rule gives E(f1, a(f2, s2), s3) on the left
    and E(s1, a(s2, f2), f3) on the right.
    """
    if span.m != op.m:
        raise ValueError("size mismatch")
    rows, inside = op.rows, span.triples
    meeting: list[list] = [[] for _ in range(op.m + 1)]
    for f in factors:
        meeting[f[2] if side == "left" else f[0]].append(f)
    if side == "left":
        return all(
            (f1, rows[f2 - 1][s2 - 1], s3) in inside
            for s1, s2, s3 in inside
            for f1, f2, _ in meeting[s1]
        )
    return all(
        (s1, rows[s2 - 1][f2 - 1], f3) in inside
        for s1, s2, s3 in inside
        for _, f2, f3 in meeting[s3]
    )


def is_left_ideal(span: SpannedSubspace, op: Operation) -> bool:
    """True iff multiplying any basis matrix onto the span from the left stays inside."""
    return _absorbs(span, op, "left", itertools.product(range(1, op.m + 1), repeat=3))


def is_right_ideal(span: SpannedSubspace, op: Operation) -> bool:
    """True iff multiplying any basis matrix onto the span from the right stays inside."""
    return _absorbs(span, op, "right", itertools.product(range(1, op.m + 1), repeat=3))


def is_ideal(span: SpannedSubspace, op: Operation) -> bool:
    return is_left_ideal(span, op) and is_right_ideal(span, op)
