"""Structural maps: the accompanying surjection, characters (with an
exhaustive oracle over the integers mod p), zero divisors, spans, and
isomorphisms."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cubal.cli import main
from cubal.cubic import CubicMatrix
from cubal.enumeration import orbit_census
from cubal.linalg import det, first_dependent_int_column, kernel_basis, matmul, rank
from cubal.operations import (
    Operation,
    Permutation,
    act,
    all_permutations,
    are_equivalent,
    enumerate_invariant_subsets,
    image,
    left_symmetric,
    orbit,
    right_symmetric,
)
from cubal.structure import (
    _basis_product_triple,
    _block_columns,
    accompanying_image,
    character_search,
    in_kernel_ideal,
    is_character,
    left_zero_divisor_witness,
    permute_indices,
    right_zero_divisor_witness,
    verify_isomorphism,
)
from cubal.verify import check_subalgebras, subset_closures, zero_divisor_trials

from conftest import mod_p_characters

E = CubicMatrix.basis


def random_cubic(m, rng, span=6):
    return CubicMatrix(
        m, [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(m**3)]
    )


def pair_loop_isomorphism(a, b, pi):
    """The m^5 basis-pair check that verify_isomorphism reduces to m^2 identities."""
    idx = range(1, a.m + 1)
    for s in itertools.product(idx, repeat=3):
        ps = tuple(map(pi, s))
        for n, r in itertools.product(idx, repeat=2):
            prod = _basis_product_triple(a, s, (s[2], n, r))
            if _basis_product_triple(b, ps, (ps[2], pi(n), pi(r))) != tuple(map(pi, prod)):
                return False
    return True


def unit(m, i, j):
    """The rows of the matrix unit u(i, j)."""
    return tuple(tuple(int((r, c) == (i, j)) for c in range(1, m + 1)) for r in range(1, m + 1))


def every_unit(m):
    return {(i, j): unit(m, i, j) for i, j in itertools.product(range(1, m + 1), repeat=2)}


class TestAccompanyingAlgebra:
    """The accompanying algebra is m x m rows under ``linalg.matmul``."""

    def test_unit_rule_matching(self):
        for m in (2, 3):
            for (i, j), u in every_unit(m).items():
                for l in range(1, m + 1):
                    assert matmul(u, unit(m, j, l)) == unit(m, i, l)

    def test_unit_rule_mismatch(self):
        for m in (2, 3):
            zero = ((0,) * m,) * m
            for ((_, j), u), ((k, _), v) in itertools.product(every_unit(m).items(), repeat=2):
                if j != k:
                    assert matmul(u, v) == zero

    def test_m1_commutative(self):
        u = unit(1, 1, 1)
        assert matmul(u, u) == u

    def test_noncommutative_for_m2(self):
        u12, u21 = unit(2, 1, 2), unit(2, 2, 1)
        assert matmul(u12, u21) != matmul(u21, u12)

    def test_rational_product(self):
        half = ((Fraction(1, 2), 1), (1, 3))
        h, q = Fraction(5, 4), Fraction(7, 2)
        assert matmul(half, half) == ((h, q), (q, 10))
        assert matmul(((1, 2, 3),), ((1,), (0,), (Fraction(1, 3),))) == ((2,),)

    def test_mismatched_inner_sizes_raise(self):
        with pytest.raises(ValueError):
            matmul(((1, 2),), ((1, 2), (3, 4), (5, 6)))
        with pytest.raises(ValueError):
            matmul(((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4)))
        with pytest.raises(ValueError):  # ragged rows in q
            matmul(((1, 2),), ((1, 2), (3,)))

    def test_associative_on_units(self):
        for a, b, c in itertools.product(every_unit(2).values(), repeat=3):
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


class TestAccompanyingImage:
    def test_unit_images(self):
        assert accompanying_image(E(2, 1, 2, 1)).coeffs == ((1, 0), (0, 0))
        for i, n, j in itertools.product((1, 2, 3), repeat=3):
            assert accompanying_image(E(3, i, n, j)).coeffs == unit(3, i, j)

    def test_zero(self):
        assert accompanying_image(CubicMatrix.zero(2)).coeffs == ((0, 0), (0, 0))

    def test_kernel_element(self):
        assert accompanying_image(E(2, 1, 1, 1) - E(2, 1, 2, 1)).coeffs == ((0, 0), (0, 0))

    def test_linear(self):
        two_in_one_fiber = E(2, 1, 1, 1) + E(2, 1, 2, 1)
        assert accompanying_image(two_in_one_fiber).coeffs == ((2, 0), (0, 0))
        rng = random.Random(31)
        for _ in range(10):
            x, y = random_cubic(2, rng), random_cubic(2, rng)
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            phi_x, phi_y = accompanying_image(x).coeffs, accompanying_image(y).coeffs
            assert accompanying_image(x + y).coeffs == tuple(
                tuple(a + b for a, b in zip(r, s)) for r, s in zip(phi_x, phi_y)
            )
            assert accompanying_image(lam * x).coeffs == tuple(
                tuple(lam * v for v in row) for row in phi_x
            )

    def test_matches_accompanying_matrix_coordinates(self):
        rng = random.Random(32)
        x = random_cubic(3, rng)
        idx = range(1, 4)
        assert accompanying_image(x).coeffs == tuple(
            tuple(sum(x.entry(i, n, k) for n in idx) for k in idx) for i in idx
        )

    def test_homomorphism_on_all_basis_pairs(self, census2, census3):
        for census, m in ((census2, 2), (census3, 3)):
            units = [E(m, *t) for t in itertools.product(range(1, m + 1), repeat=3)]
            images = [accompanying_image(u).coeffs for u in units]
            for op in census:
                for s, x in enumerate(units):
                    for t, y in enumerate(units):
                        assert accompanying_image(x.mul(y, op)).coeffs == matmul(
                            images[s], images[t]
                        )

    def test_homomorphism_on_random_pairs(self, census2, census3):
        rng = random.Random(33)
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                for _ in range(100):
                    x, y = random_cubic(m, rng, span=3), random_cubic(m, rng, span=3)
                    assert accompanying_image(x.mul(y, op)).coeffs == matmul(
                        accompanying_image(x).coeffs, accompanying_image(y).coeffs
                    )

    def test_surjective_rank(self):
        for m in (1, 2, 3):
            units = [E(m, *t) for t in itertools.product(range(1, m + 1), repeat=3)]
            rows = [
                [accompanying_image(u).coeffs[i][j] for u in units]
                for i in range(m)
                for j in range(m)
            ]
            assert rank(rows) == m * m


class TestKernelIdeal:
    def test_examples(self):
        assert in_kernel_ideal(E(2, 1, 1, 1) - E(2, 1, 2, 1))
        assert not in_kernel_ideal(E(2, 1, 1, 1))
        assert in_kernel_ideal(CubicMatrix.zero(2))

    def test_membership_equals_fiber_sum_condition(self):
        rng = random.Random(34)
        for _ in range(30):
            x = random_cubic(2, rng, span=2)
            sums_vanish = all(
                x.entry(i, 1, j) + x.entry(i, 2, j) == 0
                for i in (1, 2)
                for j in (1, 2)
            )
            assert in_kernel_ideal(x) == sums_vanish

    def test_kernel_is_a_two_sided_ideal(self, census2, census3):
        rng = random.Random(35)
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                for _ in range(5):
                    x = random_cubic(m, rng, span=3)
                    # balance each fiber through its first entry
                    entries = list(x.entries)
                    for i in range(m):
                        for j in range(m):
                            fiber = [(i * m + n) * m + j for n in range(m)]
                            entries[fiber[0]] -= sum(entries[f] for f in fiber)
                    balanced = CubicMatrix(m, entries)
                    assert in_kernel_ideal(balanced)
                    y = random_cubic(m, rng, span=3)
                    assert in_kernel_ideal(balanced.mul(y, op))
                    assert in_kernel_ideal(y.mul(balanced, op))


class TestPermuteIndices:
    def test_identity(self):
        rng = random.Random(36)
        x = random_cubic(3, rng)
        assert permute_indices(Permutation.identity(3), x) == x

    def test_relabels_basis_indices(self):
        swap = Permutation([2, 1])
        assert permute_indices(swap, E(2, 1, 1, 2)) == E(2, 2, 2, 1)

    def test_additive(self):
        rng = random.Random(37)
        pi = Permutation([3, 1, 2])
        x, y = random_cubic(3, rng), random_cubic(3, rng)
        assert permute_indices(pi, x + y) == permute_indices(pi, x) + permute_indices(pi, y)

    def test_inverse_round_trip(self):
        rng = random.Random(38)
        pi = Permutation([2, 3, 1])
        x = random_cubic(3, rng)
        assert permute_indices(pi.inverse(), permute_indices(pi, x)) == x


class TestVerifyIsomorphism:
    def test_constant_tables_under_swap(self, m2_ops):
        assert verify_isomorphism(m2_ops[0], m2_ops[7], Permutation([2, 1]))

    def test_identity_on_itself(self, m2_ops):
        for op in m2_ops:
            assert verify_isomorphism(op, op, Permutation.identity(2))

    def test_fixed_points_are_not_isomorphic_via_relabeling(self, m2_ops):
        for pi in all_permutations(2):
            assert not verify_isomorphism(m2_ops[2], m2_ops[3], pi)

    def test_all_equivalent_pairs_m2(self, census2):
        for a in census2:
            for b in census2:
                pi = are_equivalent(a, b)
                if pi is not None:
                    assert verify_isomorphism(a, b, pi)

    def test_across_the_six_element_orbit(self, orbit6_ops):
        for a in orbit6_ops:
            for b in orbit6_ops:
                pi = are_equivalent(a, b)
                assert pi is not None
                assert verify_isomorphism(a, b, pi)

    def test_every_carrying_permutation_works(self, orbit6_ops):
        a = orbit6_ops[0]
        for pi in all_permutations(3):
            b = act(pi, a)
            assert verify_isomorphism(a, b, pi)


    def test_false_exactly_when_pi_does_not_carry_a_onto_b(self, census3):
        for n, a in enumerate(census3):
            candidates = orbit(a) | {census3[(n + 1) % len(census3)]}
            for pi in all_permutations(3):
                for b in candidates:
                    assert verify_isomorphism(a, b, pi) == (act(pi, a) == b)
                    assert pair_loop_isomorphism(a, b, pi) == (act(pi, a) == b)


class TestTripleRule:
    def test_agrees_with_the_dense_product_on_every_basis_pair(self, census2, census3):
        for op in [Operation([[1]])] + census2 + census3:
            m = op.m
            triples = list(itertools.product(range(1, m + 1), repeat=3))
            for s in triples:
                for t in triples:
                    prod = _basis_product_triple(op, s, t)
                    expected = CubicMatrix.zero(m) if prod is None else E(m, *prod)
                    assert E(m, *s).mul(E(m, *t), op) == expected


class TestCharacters:
    def test_m1_unit_form_is_a_character(self):
        one = Operation([[1]])
        chi = CubicMatrix(1, [Fraction(1)])
        assert is_character(chi, one)

    def test_zero_form_is_never_a_character(self, m2_ops):
        zero = CubicMatrix.zero(2)
        assert not is_character(zero, m2_ops[2])

    def test_single_corner_form_fails(self, m2_ops):
        chi = E(2, 1, 1, 1)
        assert not is_character(chi, m2_ops[2])

    def test_search_m1(self):
        chars = character_search(Operation([[1]]))
        assert len(chars) == 1
        assert chars[0].entry(1, 1, 1) == 1

    def test_search_empty_for_all_m2_and_m3(self, census2, census3):
        for op in census2 + census3:
            assert character_search(op) == []

    @pytest.mark.parametrize("p", [2, 3])
    def test_finite_field_oracle_m2(self, p, census2):
        """Exhaust all p^8 linear forms over the integers mod p: none is
        multiplicative, for any of the eight operations, while at m = 1 the
        unit form is found."""
        assert mod_p_characters(Operation([[1]]), p) == [(1,)]
        for op in census2:
            assert mod_p_characters(op, p) == []


class TestZeroDivisors:
    def test_right_projection_with_singular_matrix(self):
        op = right_symmetric(2)
        a = E(2, 1, 1, 1)
        assert det(accompanying_image(a).coeffs) == 0
        w = left_zero_divisor_witness(a, op)
        assert w is not None and not w.is_zero()
        assert a.mul(w, op).is_zero()

    def test_right_projection_with_nonsingular_matrix(self):
        op = right_symmetric(2)
        a = E(2, 1, 1, 1) + E(2, 2, 2, 2)
        assert det(accompanying_image(a).coeffs) == 1
        assert left_zero_divisor_witness(a, op) is None

    def test_left_projection_always_a_left_divisor(self):
        rng = random.Random(39)
        op = left_symmetric(2)
        for _ in range(10):
            a = random_cubic(2, rng)
            w = left_zero_divisor_witness(a, op)
            assert w is not None and not w.is_zero()
            assert a.mul(w, op).is_zero()

    def test_right_side_mirror(self):
        op = left_symmetric(2)
        a = E(2, 1, 1, 1)
        w = right_zero_divisor_witness(a, op)
        assert w is not None
        assert w.mul(a, op).is_zero()

    def test_witnesses_are_exact_for_arbitrary_operations(self, census3):
        rng = random.Random(40)
        for op in census3[::11]:
            a = random_cubic(3, rng, span=3)
            w = left_zero_divisor_witness(a, op)
            if w is not None:
                assert not w.is_zero()
                assert a.mul(w, op).is_zero()

    def test_determinant_criterion_random(self):
        rng = random.Random(41)
        for m in (2, 3):
            op = right_symmetric(m)
            for _ in range(15):
                a = random_cubic(m, rng, span=4)
                if rng.random() < 0.5:
                    entries = list(a.entries)
                    entries[(m - 1) * m * m :] = entries[: m * m]
                    a = CubicMatrix(m, entries)
                singular = det(accompanying_image(a).coeffs) == 0
                assert (left_zero_divisor_witness(a, op) is not None) == singular


def full_zero_divisor_witness(a, op, side):
    """The first kernel vector of the whole m^3 x m^3 map X -> aX (side="left")
    or X -> Xa (side="right"), built column by column from basis products."""
    m = a.m
    units = [E(m, *t) for t in itertools.product(range(1, m + 1), repeat=3)]
    columns = [(a.mul(e, op) if side == "left" else e.mul(a, op)).entries for e in units]
    kernel = kernel_basis([list(row) for row in zip(*columns)])
    return CubicMatrix(m, kernel[0]) if kernel else None


def block_of(a, op, side):
    """The whole m^2 x m^2 block, its columns from _block_columns as rows."""
    return [list(row) for row in zip(*_block_columns(a, op, side))]


def whole_block_witness(a, op, side):
    """The first kernel vector of the whole m^2 x m^2 block, on the slice
    E(k, n, 1) (side="left") or E(1, l, k) (side="right"), or None."""
    m = a.m
    kernel = kernel_basis(block_of(a, op, side))
    if not kernel:
        return None
    entries = [0] * (m**3)
    entries[slice(None, None, m) if side == "left" else slice(m * m)] = kernel[0]
    return CubicMatrix(m, entries)


def typed(x):
    """The entries of a cubic matrix with their types, which == ignores
    (Fraction(1) == 1); None stays None."""
    return None if x is None else [(v, type(v)) for v in x.entries]


def adjoin(op, kind):
    """op extended by e = m + 1 acting as an identity or as a zero; the
    table stays associative either way."""
    e = op.m + 1
    if kind == "identity":
        rows = [list(r) + [i] for i, r in enumerate(op.rows, start=1)] + [list(range(1, e + 1))]
    else:
        rows = [list(r) + [e] for r in op.rows] + [[e] * e]
    return Operation(rows)


def dense_product_block(fixed, op, side):
    """The m^2 x m^2 zero-divisor block built column by column from dense
    products with E(k, n, 1) (side="left") or E(1, l, k) (side="right"), on
    the int multiple of fixed; _block_columns builds it by the triple rule."""
    m = fixed.m
    fixed = fixed.integer_multiple()
    block = slice(None, None, m) if side == "left" else slice(m * m)
    columns = []
    for p, q in itertools.product(range(1, m + 1), repeat=2):
        if side == "left":
            columns.append(fixed.mul(E(m, p, q, 1), op).entries[block])
        else:
            columns.append(E(m, 1, p, q).mul(fixed, op).entries[block])
    return [list(row) for row in zip(*columns)]


def block_sum(m, J, i=1, k=1):
    """The sum of E(i, j, k) over j in J, every coefficient 1."""
    return CubicMatrix(m, [int(t[0] == i and t[1] in J and t[2] == k)
                           for t in itertools.product(range(1, m + 1), repeat=3)])


def all_pairs_closed(op, lefts, rights, J):
    """True iff every nonvanishing E(s) E(t), s in lefts and t in rights, has
    its middle index in J: a loop over all basis pairs."""
    for s in lefts:
        for t in rights:
            prod = _basis_product_triple(op, s, t)
            if prod is not None and prod[1] not in J:
                return False
    return True


def all_pairs_verdicts(op, J):
    """Whether the (1, 1) block span over J is a subalgebra, and whether the
    span of every E(i, j, k), j in J, is a left and a right ideal."""
    every = list(itertools.product(range(1, op.m + 1), repeat=3))
    block = [(1, j, 1) for j in J]
    span = [t for t in every if t[1] in J]
    return (
        all_pairs_closed(op, block, block, J),
        all_pairs_closed(op, every, span, J),
        all_pairs_closed(op, span, every, J),
    )


def support(x):
    m = x.m
    return [t for t in itertools.product(range(1, m + 1), repeat=3) if x.entry(*t) != 0]


class TestBlockZeroDivisorSolve:
    """The m^2 x m^2 block solve returns the very witness of the full solve."""

    SOLVERS = {"left": left_zero_divisor_witness, "right": right_zero_divisor_witness}

    @staticmethod
    def elements(m, rng):
        """A generic element, and one whose accompanying matrix is singular."""
        entries = list(random_cubic(m, rng, span=3).entries)
        entries[(m - 1) * m * m :] = entries[: m * m]
        return random_cubic(m, rng, span=3), CubicMatrix(m, entries)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_m3_table(self, side, census3):
        rng = random.Random(50)
        found = 0
        for op in census3:
            for a in self.elements(3, rng):
                w = self.SOLVERS[side](a, op)
                assert typed(w) == typed(full_zero_divisor_witness(a, op, side))
                found += w is not None
        assert 0 < found < 2 * len(census3)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_seeded_m4_sample(self, side, census4):
        rng = random.Random(51)
        sample = [right_symmetric(4), left_symmetric(4)] + rng.sample(census4, 8)
        for op in sample:
            for a in self.elements(4, rng):
                w = self.SOLVERS[side](a, op)
                assert typed(w) == typed(full_zero_divisor_witness(a, op, side))

    @classmethod
    def adjoined_m5_sample(cls, side):
        """Six seeded m = 4 orbit representatives, each with an adjoined
        identity or zero in turn, and two elements for each."""
        rng = random.Random(f"adjoin:{side}")
        reps = [rep for rep, _ in orbit_census(4).representatives]
        for n, op in enumerate(rng.sample(reps, 6)):
            op5 = adjoin(op, ("identity", "zero")[n % 2])
            for a in cls.elements(5, rng):
                yield op5, a

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_m5_tables_with_an_adjoined_identity_or_zero(self, side):
        # the m = 5 tables of the benchmark's dense solves are built this way
        found = 0
        for op5, a in self.adjoined_m5_sample(side):
            w = self.SOLVERS[side](a, op5)
            assert typed(w) == typed(whole_block_witness(a, op5, side))
            found += w is not None
        assert 0 < found < 12

    def test_witnesses_are_pinned(self, census2, census3):
        """Both witnesses of every battery draw on the tables with m <= 3 and
        of the m = 5 sample above, in value and type, under one digest."""
        ops = [Operation([[1]])] + census2 + census3
        pairs = [(op, a) for op in ops for a in zero_divisor_trials(op)]
        pairs += [pair for side in self.SOLVERS for pair in self.adjoined_m5_sample(side)]
        digest = hashlib.sha256()
        for op, a in pairs:
            for solve in self.SOLVERS.values():
                digest.update(repr(typed(solve(a, op))).encode())
        assert digest.hexdigest() == (
            "93b7392caffcda3edc0a8235a95a87819b57c1ff292c09ffc933f63c23fbe512"
        )

    def test_witness_form_is_the_form_of_its_entries(self, census2, census3):
        """The witness is made in its int form, not from its entries: that
        form must be the one CubicMatrix(m, entries) makes, or == and hash
        would tell the two apart, and the entries keep their types, an int 1
        at the kernel vector's free column f, Fractions or int 0 before it,
        int 0 after."""
        ops = [Operation([[1]])] + census2 + census3
        pairs = [(op, a) for op in ops for a in zero_divisor_trials(op)]
        pairs += [pair for side in self.SOLVERS for pair in self.adjoined_m5_sample(side)]
        found = 0
        for op, a in pairs:
            for side, solve in self.SOLVERS.items():
                w = solve(a, op)
                if w is None:
                    continue
                found += 1
                same = CubicMatrix(w.m, w.entries)
                assert (w.slabs, w.d) == (same.slabs, same.d)
                assert w == same and hash(w) == hash(same)
                m = w.m
                vec = w.entries[slice(None, None, m) if side == "left" else slice(m * m)]
                f = max(t for t, v in enumerate(vec) if v)
                assert (vec[f], type(vec[f])) == (1, int)
                assert all(type(v) is (Fraction if v else int) for v in vec[:f])
                assert all(v == 0 and type(v) is int for v in vec[f + 1 :])
                assert all(type(v) is int and v == 0 for t, v in enumerate(w.entries)
                           if (t % m if side == "left" else t // (m * m)))
        assert found > 700

    def test_witness_lies_on_one_outer_slice(self, census3):
        """Left witnesses are supported on E(k, n, 1), right ones on E(1, l, k)."""
        rng = random.Random(52)
        found = 0
        for op in census3[::7]:
            a = self.elements(3, rng)[1]
            left, right = left_zero_divisor_witness(a, op), right_zero_divisor_witness(a, op)
            if left is not None:
                assert all(k == 1 for _, _, k in support(left))
            if right is not None:
                assert all(i == 1 for i, _, _ in support(right))
            found += (left is not None) + (right is not None)
        assert found > 0


def witness_gate(pairs, solvers, product):
    """The sha256 of both witnesses of each (op, a) in pairs, in the order of
    ``solvers`` ({side: solve}), over the repr of (value, type name) for each
    entry and of None where there is no witness; and the labels "n side" of
    the witnesses that are zero or whose product with a under ``product``,
    the reference, is not zero."""
    digest, wrong = hashlib.sha256(), []
    for n, (op, a) in enumerate(pairs):
        for side, solve in solvers.items():
            w = solve(a, op)
            digest.update(repr(None if w is None else [(v, type(v).__name__) for v in w.entries]).encode())
            if w is not None:
                factors = (a.entries, w.entries) if side == "left" else (w.entries, a.entries)
                if not any(w.entries) or any(product(*factors, op.rows, op.m)):
                    wrong.append(f"{n} {side}")
    return digest.hexdigest(), wrong


class TestBenchmarkWitnesses:
    """Both witnesses of every element the benchmark solves: the elements of
    perfbench's dense_setup(seed), and the battery's trials on the 113 tables
    on three symbols.  Each is checked against perfbench's reference product,
    and each set's digest is the one BENCH_zero_divisors.json pins."""

    SOLVERS = TestBlockZeroDivisorSolve.SOLVERS
    PINNED = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_zero_divisors.json").read_text()
    )["sha256"]

    @pytest.mark.parametrize("seed", ["5", "11"])
    def test_dense_setup(self, seed, workloads):
        pairs = [(c.op, a) for c in workloads.dense_setup(int(seed)) for a in c.elements]
        assert len(pairs) == 16
        assert witness_gate(pairs, self.SOLVERS, workloads._product) == (self.PINNED[seed]["dense"], [])

    def test_battery_trials(self, census3, workloads):
        pairs = [(op, a) for op in census3 for a in zero_divisor_trials(op)]
        assert len(pairs) == 452
        digest, wrong = witness_gate(pairs, self.SOLVERS, workloads._product)
        assert wrong == []
        assert digest == self.PINNED["5"]["battery"] == self.PINNED["11"]["battery"]

    def test_a_witness_that_does_not_annihilate_fails(self, workloads):
        # a dense element times E(1, 1, 1) keeps its slice of last index 1: never zero
        pairs = [(c.op, a) for c in workloads.dense_setup(5) for a in c.elements]
        solvers = {**self.SOLVERS, "left": lambda a, op: E(op.m, 1, 1, 1)}
        _, wrong = witness_gate(pairs, solvers, workloads._product)
        assert wrong == [f"{n} left" for n in range(16)]


class TestZeroProductBlock:
    """The triple-rule block against the dense-product oracle, entry for entry
    and type for type."""

    DRAWS = {
        "int": lambda rng: rng.choice((0, 0, rng.randint(-3, 3))),
        "fraction": lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    }

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("kind", list(DRAWS))
    def test_every_table_up_to_m3(self, side, kind, census2, census3):
        rng = random.Random(f"block:{side}:{kind}")
        draw = self.DRAWS[kind]
        for op in [Operation([[1]])] + census2 + census3:
            m = op.m
            a = CubicMatrix(m, [draw(rng) for _ in range(m**3)])
            block, expected = block_of(a, op, side), dense_product_block(a, op, side)
            assert block == expected
            assert [[type(x) for x in row] for row in block] == [
                [type(x) for x in row] for row in expected
            ]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_basis_matrix_blocks(self, side, census3):
        # a single entry fills exactly m cells, one per free index
        for op in census3[::13]:
            for t in itertools.product(range(1, 4), repeat=3):
                block = block_of(E(3, *t), op, side)
                assert block == dense_product_block(E(3, *t), op, side)
                assert sorted(x for row in block for x in row if x) == [1, 1, 1]


class TestEqualLinesStopTheSolveEarly:
    """Equal Cayley columns n' < n make the left block's columns (k, n') and
    (k, n) equal for every element, so E(1, n, 1) - E(1, n', 1) is a left
    annihilator and the left solve stops by block column (1, n); equal rows
    l' < l do the same on the right, by block column (l, 1).  This extends
    the paper's projection cases: a(i, j) = i has all its columns equal."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_table_up_to_m4_with_equal_lines(self, side, census2, census3, census4):
        tables = 0
        for op in [Operation([[1]])] + census2 + census3 + census4:
            m = op.m
            lines = list(zip(*op.rows)) if side == "left" else op.rows
            pairs = [
                (s + 1, t + 1)
                for s, t in itertools.combinations(range(m), 2)
                if lines[s] == lines[t]
            ]
            if not pairs:
                continue
            tables += 1
            n = min(t for _, t in pairs)  # the first line equal to an earlier one
            stop = n - 1 if side == "left" else (n - 1) * m  # block column (1, n) or (n, 1)
            for a in zero_divisor_trials(op):
                for s, t in pairs:
                    x = E(m, 1, t, 1) - E(m, 1, s, 1)
                    assert (a.mul(x, op) if side == "left" else x.mul(a, op)).is_zero()
                f, _ = first_dependent_int_column(_block_columns(a, op, side))
                assert f is not None and f <= stop
        assert tables == 3 + 61 + 2055


class TestBlockColumnsOnDemand:
    """A solve builds block columns only up to the first dependent one."""

    @staticmethod
    def spy(monkeypatch):
        """The block columns the solves build, in order, from now on."""
        built, real = [], _block_columns

        def counted(fixed, op, side):
            for col in real(fixed, op, side):
                built.append(col)
                yield col

        monkeypatch.setattr("cubal.structure._block_columns", counted)
        return built

    @pytest.mark.parametrize(
        "side, op, columns, divisor",
        [
            ("left", left_symmetric(4), 2, True),
            ("left", right_symmetric(4), 16, False),
            ("right", right_symmetric(4), 5, True),
            ("right", left_symmetric(4), 16, False),
        ],
        ids=[
            "left-left_symmetric",
            "left-right_symmetric",
            "right-right_symmetric",
            "right-left_symmetric",
        ],
    )
    def test_projections_at_m4(self, monkeypatch, side, op, columns, divisor):
        # left, a(i, j) = i: all Cayley columns are equal, so block column 1 is column 0;
        # right, a(i, j) = j: all rows are, so block column (2, 1) = 4 is column (1, 1);
        # the other projection gives phi(A) (x) I (I (x) phi(A)^T), nonsingular for a generic A
        a = random_cubic(4, random.Random(53))
        built = self.spy(monkeypatch)
        solve = left_zero_divisor_witness if side == "left" else right_zero_divisor_witness
        w = solve(a, op)
        assert (w is not None) == divisor
        if divisor:
            assert (a.mul(w, op) if side == "left" else w.mul(a, op)).is_zero()
        assert len(built) == columns
        assert built == list(_block_columns(a, op, side))[:columns]


class TestSizeMismatch:
    """A map given objects on different numbers of symbols raises ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda op3, x2: permute_indices(Permutation.identity(3), x2),
            lambda op3, x2: verify_isomorphism(op3, right_symmetric(2), Permutation.identity(3)),
            lambda op3, x2: verify_isomorphism(op3, op3, Permutation.identity(2)),
            lambda op3, x2: is_character(x2, op3),
            lambda op3, x2: left_zero_divisor_witness(x2, op3),
            lambda op3, x2: right_zero_divisor_witness(x2, op3),
        ],
        ids=[
            "permute_indices",
            "verify_isomorphism-tables",
            "verify_isomorphism-permutation",
            "is_character",
            "left_zero_divisor_witness",
            "right_zero_divisor_witness",
        ],
    )
    def test_raises_value_error(self, call, cycle3):
        with pytest.raises(ValueError, match="size mismatch"):
            call(cycle3, E(2, 1, 1, 1))


class TestSpans:
    """The spans of basis matrices that invariant subsets give, through products."""

    def test_invariant_singleton_span(self, all_invariant3):
        e = E(3, 1, 2, 1)
        assert e.mul(e, all_invariant3) == e
        assert dict(subset_closures(all_invariant3))[(2,)][0] is True

    def test_non_invariant_subset_rejected(self, cycle3):
        # a(2, 2) = 3 but a(2, 3) = 1: the square of x_{2,3} leaves the span
        x = block_sum(3, {2, 3})
        assert {j for _, j, _ in support(x.mul(x, cycle3))} == {1, 2, 3}
        assert dict(subset_closures(cycle3))[(2, 3)][0] is False

    def test_empty_subset_rejected(self, cycle3):
        # the product check probes the 2^m - 1 nonempty subsets only
        probed = [J for J, _ in subset_closures(cycle3)]
        assert len(probed) == len(set(probed)) == 7 and () not in probed

    def test_forced_non_closed_span_fails(self, cycle3):
        e = E(3, 1, 2, 1)
        assert e.mul(e, cycle3) == E(3, 1, 3, 1)
        assert dict(subset_closures(cycle3))[(2,)] == (False, False, False)

    def test_off_diagonal_blocks_multiply_to_zero(self, all_invariant3):
        for s in itertools.product((1,), (2, 3), (2,)):
            for t in itertools.product((1,), (2, 3), (2,)):
                assert E(3, *s).mul(E(3, *t), all_invariant3).is_zero()
        x = block_sum(3, {1, 2, 3}, 1, 2)
        assert x.mul(x, all_invariant3).is_zero()

    def test_block_spans_are_disjoint(self, all_invariant3):
        # block (i, k) times block (k, r) lands in block (i, r), and blocks
        # that do not meet multiply to zero
        for i, k, l, r in itertools.product((1, 2, 3), repeat=4):
            prod = block_sum(3, {1, 2}, i, k).mul(block_sum(3, {1, 2}, l, r), all_invariant3)
            blocks = {(s, u) for s, _, u in support(prod)}
            assert blocks == ({(i, r)} if k == l else set())

    def test_inclusion_and_disjointness_identities(self, census3):
        for op in census3[::6]:
            invariant = [J for J in enumerate_invariant_subsets(op) if J]
            squares = {J: support(block_sum(3, J, 2, 2).mul(block_sum(3, J, 2, 2), op)) for J in invariant}
            for J1, J2 in itertools.combinations(invariant, 2):
                if J1 <= J2:
                    assert set(squares[J1]) <= {(2, j, 2) for j in J2}
                if not (J1 & J2):
                    assert not set(squares[J1]) & set(squares[J2])

    def test_every_invariant_subset_spans_a_subalgebra(self, census2, census3):
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                for J in enumerate_invariant_subsets(op):
                    if not J:
                        continue
                    for i, k in itertools.product(range(1, m + 1), repeat=2):
                        x = block_sum(m, J, i, k)
                        assert {j for _, j, _ in support(x.mul(x, op))} <= J


class TestImageIdeal:
    """The middle indices in the image span a two-sided ideal; the subalg
    report lists its triples."""

    @staticmethod
    def image_ideal_triples(capsys, tmp_path, op):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"m": op.m, "table": [list(r) for r in op.rows]}))
        assert main(["subalg", "--op", str(path)]) == 0
        return [tuple(t) for t in json.loads(capsys.readouterr().out)["results"]["image_ideal_triples"]]

    def test_constant_table(self, m2_ops, capsys, tmp_path):
        assert self.image_ideal_triples(capsys, tmp_path, m2_ops[0]) == [
            (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2)
        ]
        assert dict(subset_closures(m2_ops[0]))[(1,)] == (True, True, True)

    def test_full_image_gives_the_whole_algebra(self, m2_ops, capsys, tmp_path):
        triples = self.image_ideal_triples(capsys, tmp_path, m2_ops[3])
        assert triples == list(itertools.product((1, 2), repeat=3))

    def test_all_invariant_table(self, all_invariant3, capsys, tmp_path):
        assert len(self.image_ideal_triples(capsys, tmp_path, all_invariant3)) == 27

    def test_is_a_two_sided_ideal_everywhere(self, census2, census3):
        for op in census2 + census3:
            closures = dict(subset_closures(op))
            assert closures[tuple(sorted(image(op)))] == (True, True, True)

    def test_full_span_is_an_ideal(self, cycle3):
        assert dict(subset_closures(cycle3))[(1, 2, 3)] == (True, True, True)

    def test_one_sided_examples(self, m2_ops):
        # for the right projection, a(j, n) = n, so fixing the middle index
        # to 1 is stable under left multiplication only
        op = m2_ops[3]
        assert dict(subset_closures(op)) == {
            (1,): (True, True, False), (2,): (True, True, False), (1, 2): (True, True, True)
        }
        assert check_subalgebras(op)


class TestAllPairsOracle:
    """The subalgebra and ideal verdicts read off three products per subset
    agree with loops over all basis pairs, and both verdicts occur for each."""

    def test_block_and_image_ideal_spans(self, census2, census3):
        seen = [set(), set(), set()]
        for op in [Operation([[1]])] + census2 + census3:
            for J, closures in subset_closures(op):
                assert closures == all_pairs_verdicts(op, set(J))
                for values, value in zip(seen, closures):
                    values.add(value)
        assert seen == [{True, False}] * 3


def nonempty_invariant_count(op):
    return sum(1 for J in enumerate_invariant_subsets(op) if J)


class TestSubalgebraCounts:
    def test_seven_nonempty_invariant_subsets(self, all_invariant3):
        assert nonempty_invariant_count(all_invariant3) == 7

    def test_cycle_table(self, cycle3):
        assert nonempty_invariant_count(cycle3) == 2

    def test_m1(self):
        assert nonempty_invariant_count(Operation([[1]])) == 1
