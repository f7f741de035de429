"""The centre and the radical of the ACM as dimension formulas over Q[S].

A is the algebra of cubic matrices under a table a, and Q[S] the table's
semigroup algebra: basis e_1, .., e_m with e_s e_t = e_(a(s, t)).  Two
formulas (README, "The centre and the radical") extend the paper's results
that A is commutative only at m = 1 and that it has ideals and zero divisors:

    dim Z(A)   = dim Z(Q[S]) + (m^2 - 1) dim Ann(Q[S])
    dim Rad A  = m^2 (m - rank T),  T[j][n] = f(a(j, n)),  f(j) = #{x : a(j, x) = x}

where Ann(Q[S]) = {x : x Q[S] = Q[S] x = 0}.  The ACM side of each is read
off the m^6 basis products, each one taken through ``CubicMatrix.mul``; the
Q[S] side comes from the table's rows alone.
"""

import functools
import itertools
from collections import Counter

import pytest

from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations, orbit_census
from cubal.linalg import rank
from test_certificate import dropped_term
from test_enumeration import KNOWN_COUNTS


def basis_products(op) -> list:
    """E_a E_b as its nonzero (flat index, value) pairs, for flat indices a, b
    < m^3, each through ``mul``."""
    m = op.m
    basis = [CubicMatrix.basis(m, *ijk) for ijk in itertools.product(range(1, m + 1), repeat=3)]
    return [[x.mul(y, op).nonzero_items() for y in basis] for x in basis]


def acm_centre(products, m3: int) -> int:
    """dim Z(A): m^3 minus the rank of X -> ([X, E_b])_b, whose column (b, c)
    holds entry c of [E_a, E_b] over a."""
    columns = {}
    for a, b in itertools.product(range(m3), repeat=2):
        for c, v in products[a][b]:
            columns.setdefault((b, c), [0] * m3)[a] += v
            columns.setdefault((a, c), [0] * m3)[b] -= v
    return m3 - rank([column for column in columns.values() if any(column)])


def acm_radical(products, m3: int) -> int:
    """dim Rad A: m^3 minus the rank of the trace form (X, Y) -> tr L_(XY)
    (Dickson's criterion), where tr L_(E_c) is the sum over b of the
    coefficient of E_b in E_c E_b, and tr L is linear."""
    traces = [sum(v for b in range(m3) for c, v in products[a][b] if c == b) for a in range(m3)]
    gram = [[sum(v * traces[c] for c, v in products[a][b]) for b in range(m3)] for a in range(m3)]
    return m3 - rank(gram)


def acm_dims(op) -> tuple[int, int]:
    """(dim Z(A), dim Rad A), every product and trace through ``mul``."""
    products = basis_products(op)
    return acm_centre(products, op.m**3), acm_radical(products, op.m**3)


@functools.cache  # the radical table and test_verify's semisimple class share it
def semigroup_algebra_dims(op) -> tuple[int, int, int]:
    """(dim Z(Q[S]), dim Ann(Q[S]), dim Rad Q[S]) from the table's rows.  Each
    system has a column per coefficient x_s of x, the coefficient of e_u in
    x e_t - e_t x a row of the centre's, and that of e_u in x e_t and in e_t x
    two rows of the annihilator's.  dim Rad Q[S] is m - rank T, the radical
    of Q[S]'s trace form, whose tr L_(e_j) is f(j)."""
    rows, m = op.rows, op.m
    right = [[[int(rows[s][t] == u) for s in range(m)] for u in range(1, m + 1)] for t in range(m)]
    left = [[[int(rows[t][s] == u) for s in range(m)] for u in range(1, m + 1)] for t in range(m)]
    centre = [[r - l for r, l in zip(*pair)] for t in range(m) for pair in zip(right[t], left[t])]
    annihilator = [row for t in range(m) for row in right[t] + left[t]]
    f = [sum(rows[j][x] == x + 1 for x in range(m)) for j in range(m)]
    trace_form = [[f[rows[j][n] - 1] for n in range(m)] for j in range(m)]
    return m - rank(centre), m - rank(annihilator), m - rank(trace_form)


def predicted_dims(op) -> tuple[int, int]:
    """(dim Z(A), dim Rad A) by the two formulas, from Q[S]."""
    z, ann, rad = semigroup_algebra_dims(op)
    return z + (op.m**2 - 1) * ann, op.m**2 * rad


def centre_histogram(tables) -> Counter:
    """How many of the (op, acm_dims(op)) pairs have each (dim Z(A), dim Z(Q[S]),
    dim Ann(Q[S]))."""
    return Counter((z, *semigroup_algebra_dims(op)[:2]) for op, (z, _) in tables)


def wrong(ops, side: int) -> list:
    """The tables of ops whose ACM side (0 the centre, 1 the radical) is not the formula's."""
    acm_side = (acm_centre, acm_radical)[side]
    return [op for op in ops if acm_side(basis_products(op), op.m**3) != predicted_dims(op)[side]]


@pytest.fixture(scope="module")
def small_tables():
    """Every table with m <= 3, with its ACM side through ``mul``."""
    return [(op, acm_dims(op)) for m in (1, 2, 3) for op in collect_operations(m)]


def test_both_formulas_hold_on_every_table_up_to_m3(small_tables):
    assert len(small_tables) == 1 + 8 + 113
    assert [op for op, dims in small_tables if dims != predicted_dims(op)] == []


def test_m3_centre_histogram(small_tables):
    got = centre_histogram((op, dims) for op, dims in small_tables if op.m == 3)
    want = {(0, 0, 0): 2, (1, 1, 0): 36, (3, 3, 0): 30, (9, 1, 1): 12, (11, 3, 1): 30, (19, 3, 2): 3}
    assert got == want
    # the bound m^3 - m^2 + 1 that dim Ann(Q[S]) <= m - 1 gives, so A is not commutative
    assert max(z for z, _, _ in got) == 3**3 - 3**2 + 1


# dim Rad Q[S] over the orbit minima of each m, as {dim: (orbits, labelled tables)}; CI checks m = 6
RADICAL_TABLE = {
    1: {0: (1, 1)},
    2: {0: (2, 4), 1: (3, 4)},
    3: {0: (5, 24), 1: (13, 66), 2: (6, 23)},
    4: {0: (16, 272), 1: (66, 1344), 2: (82, 1492), 3: (24, 384)},
    5: {0: (53, 4245), 1: (338, 34040), 2: (782, 77520), 3: (556, 50120), 4: (186, 17807)},
}
ORBITS = {1: 1, 2: 5, 3: 24, 4: 188, 5: 1915}  # OEIS A027851


def radical_table(representatives) -> dict:
    """{dim Rad Q[S]: (orbits, labelled tables)} over a census's (op, size) pairs."""
    table = {}
    for op, size in representatives:
        orbits, labelled = table.get(rad := semigroup_algebra_dims(op)[2], (0, 0))
        table[rad] = (orbits + 1, labelled + size)
    return dict(sorted(table.items()))


@pytest.mark.parametrize("m", sorted(RADICAL_TABLE))
def test_radical_of_the_semigroup_algebra_over_the_orbit_minima(m):
    got = radical_table(orbit_census(m).representatives)
    assert got == RADICAL_TABLE[m]
    assert sum(orbits for orbits, _ in got.values()) == ORBITS[m]
    assert sum(labelled for _, labelled in got.values()) == KNOWN_COUNTS[m]  # OEIS A023814
    # an idempotent is never nilpotent, so dim Rad Q[S] <= m - 1; every m reaches it
    assert max(got) == m - 1


def outer_diagonal(mul):
    """The product with only its entries of equal outer indices, i = r."""
    def product(x, y, op):
        xy = mul(x, y, op)
        m, entries = xy.m, list(xy.entries)
        kept = [v if i // (m * m) == i % m else 0 for i, v in enumerate(entries)]
        return xy if kept == entries else CubicMatrix(m, kept)
    return product


@pytest.mark.parametrize(
    "mutant, side, failing", [(outer_diagonal, 0, (6, 99)), (dropped_term, 1, (6, 74))]
)
def test_product_mutant_fails_the_formula(mutant, side, failing, monkeypatch):
    monkeypatch.setattr(CubicMatrix, "mul", mutant(CubicMatrix.mul))
    assert (len(wrong(collect_operations(2), side)), len(wrong(collect_operations(3), side))) == failing
