"""Randomized invariants driven by hypothesis."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations
from cubal.operations import (
    Permutation,
    act,
    check_associative,
    closure,
    is_invariant,
)
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


@given(op=ops3, K=subsets3)
def test_closure_is_an_invariant_idempotent_hull(op, K):
    J = closure(K, op)
    assert K <= J
    assert is_invariant(J, op)
    assert closure(J, op) == J


@given(op=ops3, K=subsets3, L=subsets3)
def test_closure_is_monotone(op, K, L):
    if K <= L:
        assert closure(K, op) <= closure(L, op)


@settings(max_examples=40)
@given(x=cubics3, y=cubics3, op=ops3)
def test_product_is_a_homomorphism_image(x, y, op):
    assert accompanying_image(x.mul(y, op)) == accompanying_image(x).mul(
        accompanying_image(y)
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
    for size in range(4):
        for members in itertools.combinations((1, 2, 3), size):
            J = frozenset(members)
            if is_invariant(J, op):
                assert closure(J, op) == J
