"""Randomized invariants driven by hypothesis."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cubal import cubic
from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations, orbit_census
from cubal.operations import (
    Operation,
    Permutation,
    act,
    check_associative,
    enumerate_invariant_subsets,
)
from cubal.linalg import matmul
from cubal.structure import accompanying_image

OPS3 = collect_operations(3)

ops3 = st.sampled_from(OPS3)
perms3 = st.permutations([1, 2, 3]).map(Permutation)
subsets3 = st.frozensets(st.integers(1, 3))
rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)
cubics3 = st.lists(rationals, min_size=27, max_size=27).map(
    lambda entries: CubicMatrix(3, entries)
)


@given(pi=perms3, sigma=perms3, op=ops3)
def test_action_composition_law(pi, sigma, op):
    assert act(pi.compose(sigma), op) == act(pi, act(sigma, op))


@given(pi=perms3, op=ops3)
def test_action_preserves_associativity_and_inverts(pi, op):
    moved = act(pi, op)
    assert check_associative(moved.rows)
    assert act(pi.inverse(), moved) == op


def closure_step(J, op):
    """J together with a(J, J), read off the table alone."""
    return J | {op(s, t) for s in J for t in J}


@given(op=ops3, K=subsets3)
def test_closure_is_an_invariant_idempotent_hull(op, K):
    # the first invariant set holding K in the scan's order (by size) is the
    # fixed point of closure_step from K: invariant sets meet in invariant sets
    J = K
    while closure_step(J, op) != J:
        J = closure_step(J, op)
    assert next(L for L in enumerate_invariant_subsets(op) if K <= L) == J


@settings(max_examples=40)
@given(x=cubics3, y=cubics3, op=ops3)
def test_product_is_a_homomorphism_image(x, y, op):
    assert accompanying_image(x.mul(y, op)).coeffs == matmul(
        accompanying_image(x).coeffs, accompanying_image(y).coeffs
    )


@settings(max_examples=40)
@given(x=cubics3, y=cubics3, z=cubics3, op=ops3)
def test_product_distributes(x, y, z, op):
    assert (x + y).mul(z, op) == x.mul(z, op) + y.mul(z, op)
    assert x.mul(y + z, op) == x.mul(y, op) + x.mul(z, op)


@settings(max_examples=25)
@given(x=cubics3, y=cubics3, z=cubics3, op=ops3)
def test_product_is_associative(x, y, z, op):
    assert x.mul(y, op).mul(z, op) == x.mul(y.mul(z, op), op)


@given(op=ops3, pi=perms3)
def test_orbits_are_closed_under_the_action(op, pi):
    from cubal.operations import orbit

    members = orbit(op)
    assert act(pi, op) in members
    assert orbit(act(pi, op)) == members


@given(op=ops3)
def test_invariant_subsets_are_closure_fixed_points(op):
    listed = set(enumerate_invariant_subsets(op))
    for size in range(4):
        for members in itertools.combinations((1, 2, 3), size):
            J = frozenset(members)
            assert (J in listed) == (closure_step(J, op) == J)


# --- the cached int form behind products and phi ---------------------------

OPS_UP_TO_3 = [Operation([[1]])] + collect_operations(2) + OPS3
SCALARS = {
    "int": st.integers(-9, 9),
    "fraction": rationals,
    "mixed": st.one_of(
        st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7)
    ),
}


@st.composite
def product_cases(draw):
    """A table on up to three symbols and three dense matrices of one entry kind."""
    op = draw(st.sampled_from(OPS_UP_TO_3))
    scalar = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    entries = st.lists(scalar, min_size=op.m**3, max_size=op.m**3)
    return op, *(draw(entries.map(lambda e, m=op.m: CubicMatrix(m, e))) for _ in range(3))


def whole(x) -> bool:
    return all(getattr(v, "denominator", 1) == 1 for v in x.entries)


def expected_types(x, y, values) -> list:
    """The entry types of x.mul(y): with two whole operands, int; otherwise
    int where the entry is 0 or every entry of the product is whole, and
    Fraction elsewhere."""
    if whole(x) and whole(y):
        return [int] * len(values)
    every_whole = all(Fraction(v).denominator == 1 for v in values)
    return [int if v == 0 or every_whole else Fraction for v in values]


def fiber_sums(x) -> tuple:
    m, e = x.m, x.entries
    return tuple(
        tuple(sum(e[(i * m + n) * m + j] for n in range(m)) for j in range(m)) for i in range(m)
    )


def check_entries(xy, x, y, values):
    """The product xy of x and y has the reference values, value for value,
    and the entry types expected_types gives."""
    assert list(xy.entries) == values
    assert [type(v) for v in xy.entries] == expected_types(x, y, values)


def checked_product(x, y, op, reference):
    """x.mul(y, op), checked against ``reference`` value for value and type
    for type."""
    xy = x.mul(y, op)
    check_entries(xy, x, y, reference(x.entries, y.entries, op.rows, op.m))
    return xy


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=product_cases())
def test_products_match_the_reference_through_chains(case, workloads):
    op, x, y, z, ref = *case, workloads._product
    xy, yz = checked_product(x, y, op, ref), checked_product(y, z, op, ref)
    assert checked_product(xy, z, op, ref) == checked_product(x, yz, op, ref)
    power = x
    for _ in range(3):
        power = checked_product(power, power, op, ref)
    assert x.plenary_power(3, op) == power


def seeded_product_pairs(seed: int) -> list:
    """(op, x, y) for three orbit minima at each of m = 3, 4, 5, drawn with
    random.Random(seed).  Each table has four pairs each of int (dense,
    entries in -9..9), rational (dense, p/q with q in 1..4) and slice (dense
    rational times an element on the slice of last index 1, the shape of a
    left witness), and forty basis pairs E(s) E(t) with s3 = t1."""
    rng = random.Random(seed)
    integer = lambda: rng.randint(-9, 9)
    rational = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    pairs = []
    for m in (3, 4, 5):
        cells = range(m**3)
        dense = lambda draw: CubicMatrix(m, [draw() for _ in cells])
        one_slice = lambda: CubicMatrix(m, [rational() if flat % m == 0 else 0 for flat in cells])
        for op in rng.sample([rep for rep, _ in orbit_census(m).representatives], 3):
            for _ in range(4):
                pairs += [(op, dense(integer), dense(integer)), (op, dense(rational), dense(rational))]
                pairs.append((op, dense(rational), one_slice()))
            for _ in range(40):
                i, j, k, n, r = (rng.randint(1, m) for _ in range(5))
                pairs.append((op, CubicMatrix.basis(m, i, j, k), CubicMatrix.basis(m, k, n, r)))
    return pairs


def check_seeded_products(seed: int, reference):
    """Each seeded pair's product, cold (with a right factor just made) and
    warm (the second product with the same right factor, which adds up the
    slice products the first one kept), against ``reference``."""
    for op, x, y in seeded_product_pairs(seed):
        values = reference(x.entries, y.entries, op.rows, op.m)
        check_entries(x.mul(CubicMatrix(op.m, y.entries), op), x, y, values)
        x.mul(y, op)
        check_entries(x.mul(y, op), x, y, values)
        assert x._pair[1] is not None  # the warm product took the kept-slice path


@pytest.mark.parametrize("seed", [5, 11])
def test_seeded_products_cold_and_warm(seed, workloads):
    check_seeded_products(seed, workloads._product)


def test_a_doubled_product_fails_the_seeded_products(workloads, monkeypatch):
    real = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda self, other, op: real(self, other, op).scale(2))
    with pytest.raises(AssertionError):
        check_seeded_products(5, workloads._product)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=product_cases())
def test_phi_of_a_product_is_phi_of_its_entries(case):
    op, x, y, z = case
    for product in (x.mul(y, op), x.mul(y, op).mul(z, op), x.plenary_power(3, op)):
        image = accompanying_image(product).coeffs
        assert image == accompanying_image(CubicMatrix(op.m, product.entries)).coeffs
        assert image == fiber_sums(product)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=product_cases())
def test_products_phi_and_multiples_never_scale_a_matrix(case):
    # each matrix is scaled to ints where it is made; products, phi,
    # integer_multiple and is_zero read that form and never scale again
    op, x, y, z = case
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cubic, "integral", lambda values: calls.append(values))
        products = [x.mul(y, op), y.mul(x, op), x.mul(x, op)]
        products += [x.mul(y, op).mul(z, op), x.plenary_power(3, op)]
        for p in products + [x, y, z]:
            accompanying_image(p)
            p.integer_multiple().is_zero()
            p.is_zero()
    assert calls == []
