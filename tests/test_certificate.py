"""One tagged product per table certifies ``mul`` on every basis pair.

The product is bilinear, so one product decides it on all m^6 basis pairs
when the factors carry distinct tags: X = sum over a of 2^a E_a and Y = sum
over b of 2^(m^3 b) E_b, over the flat indices a, b < m^3.  The basis pair
(a, b) adds the single bit a + m^3 b to the entry where the triple rule
E(i, j, k) E(k, n, r) = E(i, a(j, n), r) puts E_a E_b, so each entry of XY is
the bitmask of the basis pairs the product sends there, and a pair whose inner
indices differ sets no bit.  XY is compared with an evaluation of the triple
rule that reads the table's rows, not ``mul``.

``Operation`` checks that a table is associative, and the triple rule
inherits associativity from the table, so the algebra of a certified table
is associative.  A mutant that is not bilinear can pass one product, so the
certificate adds to the seeded product trials and does not replace them.
"""

import itertools
import random

import pytest

from cubal import cubic
from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations
from cubal.operations import Operation


def tagged_factors(m: int):
    """X = sum of 2^a E_a and Y = sum of 2^(m^3 b) E_b over the flat indices a, b < m^3."""
    m3 = m**3
    x = CubicMatrix(m, [1 << a for a in range(m3)])
    return x, CubicMatrix(m, [1 << m3 * b for b in range(m3)])


def triple_rule_tags(rows, m: int) -> list:
    """XY in flat order by the triple rule, on the table's 1-based rows: each
    (i, j, k, n, r) sets bit a + m^3 b at (i, a(j, n), r), where a is the flat
    index of (i, j, k) and b that of (k, n, r)."""
    m3, out = m**3, [0] * m**3
    for i, j, k, n, r in itertools.product(range(m), repeat=5):
        out[(i * m + rows[j][n] - 1) * m + r] |= 1 << (i * m + j) * m + k + m3 * ((k * m + n) * m + r)
    return out


def uncertified(ops, m: int, *, fresh: bool = False) -> list:
    """The tables of ops, all of size m, whose XY is not the triple rule's.
    One X and Y serve every table, so ``mul`` takes its kept-slice path from
    the second table on; with ``fresh``, each table gets its own copy of X,
    so every product takes the slab path."""
    x, y = tagged_factors(m)
    failed = []
    for op in ops:
        left = CubicMatrix(m, x.entries) if fresh else x
        if list(left.mul(y, op).entries) != triple_rule_tags(op.rows, m):
            failed.append(op)
    return failed


# the 16 tables on {1, 2}, associative or not: the 8 semigroups and 8 magmas
MAGMAS2 = [
    Operation((cells[:2], cells[2:]), unchecked=True) for cells in itertools.product((1, 2), repeat=4)
]


@pytest.fixture
def counted_slices(monkeypatch):
    """The calls to ``cubic._slice_products``: one each time a left factor
    meets the same right factor a second time and keeps their slice products."""
    slice_products, calls = cubic._slice_products, []
    monkeypatch.setattr(cubic, "_slice_products", lambda *args: calls.append(args) or slice_products(*args))
    return calls


@pytest.mark.parametrize("m, tables", [(1, 1), (2, 8), (3, 113), (4, 3492)])
def test_every_table_up_to_m4_is_certified_on_shared_factors(m, tables, counted_slices):
    ops = collect_operations(m)
    assert len(ops) == tables
    assert uncertified(ops, m) == []
    assert len(counted_slices) == (tables > 1)  # kept at the second table, reused after


def test_every_table_up_to_m3_and_a_seeded_m4_sample_are_certified_on_fresh_factors(counted_slices):
    for m in (1, 2, 3):
        assert uncertified(collect_operations(m), m, fresh=True) == []
    assert uncertified(random.Random(23).sample(collect_operations(4), 200), 4, fresh=True) == []
    assert counted_slices == []


def test_every_magma_of_order_2_is_certified(counted_slices):
    assert [op for op in MAGMAS2 if op in collect_operations(2)] == collect_operations(2)
    assert uncertified(MAGMAS2, 2) == []
    assert uncertified(MAGMAS2, 2, fresh=True) == []
    assert len(counted_slices) == 1


def opposite(op):
    """The table of a(n, j) at (j, n)."""
    return Operation(tuple(zip(*op.rows)), unchecked=True)


def opposite_table(mul):
    return lambda x, y, op: mul(x, y, opposite(op))


def dropped_term(mul):
    """The product without its term X[1,1,1] Y[1,1,1], at (1, a(1, 1), 1)."""
    def product(x, y, op):
        if not (coefficient := x.entries[0] * y.entries[0]):
            return mul(x, y, op)
        return mul(x, y, op) - CubicMatrix.basis(x.m, 1, op.rows[0][0], 1).scale(coefficient)
    return product


def wrong_denominator(mul):
    """The product's ints over twice its denominator."""
    def product(x, y, op):
        xy = mul(x, y, op)
        return CubicMatrix._from_form(xy.m, xy.slabs, 2 * xy.d)
    return product


def right_transposition(mul):
    """The right factor's slabs of first index 1 and 2 trade places: the
    sandwich matrix of the transposition (1 2) on the right factor's first index."""
    def product(x, y, op):
        mm, e = y.m * y.m, y.entries
        return mul(x, CubicMatrix(y.m, e[mm : 2 * mm] + e[:mm] + e[2 * mm :]), op)
    return product


@pytest.mark.parametrize("mutant", [opposite_table, dropped_term, wrong_denominator, right_transposition])
def test_each_product_mutant_fails_on_the_tables_where_it_moves_a_basis_product(mutant, monkeypatch):
    # the opposite table moves a basis product exactly on the non-commutative
    # tables (2 of the 8 semigroups of order 2, 50 of the 113 of order 3, and
    # 8 of the 16 magmas of order 2); each other mutant moves one on every table
    monkeypatch.setattr(CubicMatrix, "mul", mutant(CubicMatrix.mul))
    cases = ((2, collect_operations(2), 2), (3, collect_operations(3), 50), (2, MAGMAS2, 8))
    for m, ops, noncommutative in cases:
        moved = ops
        if mutant is opposite_table:
            moved = [op for op in ops if opposite(op) != op]
            assert len(moved) == noncommutative
        assert uncertified(ops, m) == moved == uncertified(ops, m, fresh=True)
