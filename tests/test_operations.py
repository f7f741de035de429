"""Core operation type, relabeling action, orbits, invariant subsets, closures."""

import itertools

import pytest

from cubal.errors import CapacityError, FormatError, NotAssociativeError
from cubal.operations import (
    Operation,
    Permutation,
    act,
    all_permutations,
    are_equivalent,
    check_associative,
    classify_power_sequence,
    classify_symmetry,
    closure,
    enumerate_invariant_subsets,
    image,
    invariance_violation,
    is_invariant,
    is_symmetric,
    left_symmetric,
    power_sequence,
    orbit,
    right_symmetric,
)

from conftest import CYCLE3, M2_TABLES, MONOGENIC4, brute_associative


class TestCheckAssociative:
    def test_meet_semilattice_is_associative(self):
        assert check_associative([[1, 1], [1, 2]])

    def test_singleton_is_associative(self):
        assert check_associative([[1]])

    def test_non_associative_table(self):
        # (1 1) 2 = 1 but 1 (1 2) = 2
        assert not check_associative([[2, 1], [1, 1]])

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            check_associative([[1, 3], [1, 2]])
        with pytest.raises(FormatError):
            check_associative([[0, 1], [1, 1]])

    def test_ragged_table_rejected(self):
        with pytest.raises(FormatError):
            check_associative([[1, 1], [1]])

    def test_agrees_with_brute_force_on_all_m2_tables(self):
        for combo in itertools.product((1, 2), repeat=4):
            rows = [list(combo[:2]), list(combo[2:])]
            assert check_associative(rows) == brute_associative(rows)


class TestOperationType:
    def test_constructor_rejects_non_associative(self):
        with pytest.raises(NotAssociativeError):
            Operation([[2, 1], [1, 1]])

    def test_unchecked_escape(self):
        op = Operation([[2, 1], [1, 1]], unchecked=True)
        assert op(1, 1) == 2

    def test_call_is_one_based(self):
        op = Operation(CYCLE3)
        assert op(2, 3) == 1
        assert op(3, 3) == 2

    def test_ordering_is_rowmajor_lexicographic(self):
        ops = [Operation(t) for t in M2_TABLES]
        assert ops == sorted(ops)
        assert ops[0].flat() == (1, 1, 1, 1)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(FormatError):
            Permutation([1, 1])

    def test_inverse_and_compose(self):
        pi = Permutation([2, 3, 1])
        assert pi.inverse().compose(pi) == Permutation.identity(3)
        assert pi.compose(pi.inverse()) == Permutation.identity(3)

    def test_all_permutations_count(self):
        assert sum(1 for _ in all_permutations(4)) == 24


class TestAction:
    def test_identity_fixes_everything(self, m2_ops):
        for op in m2_ops:
            assert act(Permutation.identity(2), op) == op

    def test_swap_pairs_up_the_m2_tables(self, m2_ops):
        swap = Permutation([2, 1])
        assert act(swap, m2_ops[0]) == m2_ops[7]  # constant <-> constant
        assert act(swap, m2_ops[1]) == m2_ops[5]  # the two semilattices
        assert act(swap, m2_ops[4]) == m2_ops[6]  # the two group tables

    def test_size_mismatch_rejected(self, m2_ops):
        with pytest.raises(ValueError):
            act(Permutation.identity(3), m2_ops[0])

    def test_action_results_stay_associative(self, census3):
        for op in census3:
            for pi in all_permutations(3):
                assert check_associative(act(pi, op).rows)

    def test_action_results_stay_associative_m4_sample(self, census4):
        sample = census4[:: max(1, len(census4) // 40)]
        perms = list(all_permutations(4))
        for op in sample:
            for pi in perms[::5]:
                assert check_associative(act(pi, op).rows)

    def test_composition_law(self, census2, census3):
        for ops, m in ((census2, 2), (census3, 3)):
            perms = list(all_permutations(m))
            for op in ops:
                for pi, sigma in zip(perms, reversed(perms)):
                    assert act(pi.compose(sigma), op) == act(pi, act(sigma, op))


class TestOrbits:
    def test_left_projection_is_a_fixed_point(self, m2_ops):
        assert orbit(m2_ops[2]) == frozenset({m2_ops[2]})

    def test_constant_orbit(self, m2_ops):
        assert orbit(m2_ops[0]) == frozenset({m2_ops[0], m2_ops[7]})

    def test_six_element_orbit(self, orbit6_ops):
        assert orbit(orbit6_ops[0]) == frozenset(orbit6_ops)

    def test_orbits_partition_the_census(self, census3):
        seen = {}
        for op in census3:
            members = orbit(op)
            assert len(members) in (1, 2, 3, 6)  # divisors of 3!
            for member in members:
                assert seen.setdefault(member, members) == members
        assert set(seen) == set(census3)


class TestEquivalence:
    def test_witness_is_verified_by_reapplying_the_action(self, m2_ops):
        pi = are_equivalent(m2_ops[4], m2_ops[6])
        assert pi is not None
        assert act(pi, m2_ops[4]) == m2_ops[6]

    def test_reflexive(self, m2_ops):
        for op in m2_ops:
            pi = are_equivalent(op, op)
            assert pi is not None and act(pi, op) == op

    def test_two_fixed_points_are_inequivalent(self, m2_ops):
        assert are_equivalent(m2_ops[2], m2_ops[3]) is None


class TestSymmetry:
    def test_right_projection(self, m2_ops):
        assert is_symmetric(m2_ops[3])
        assert classify_symmetry(m2_ops[3]) == "right"

    def test_left_projection_m3(self):
        op = left_symmetric(3)
        assert is_symmetric(op)
        assert classify_symmetry(op) == "left"

    def test_group_table_is_not_symmetric(self, m2_ops):
        assert not is_symmetric(m2_ops[4])
        assert classify_symmetry(m2_ops[4]) == "none"

    def test_m1_is_degenerate_both(self):
        op = Operation([[1]])
        assert is_symmetric(op)
        assert classify_symmetry(op) == "both"

    @pytest.mark.parametrize("m", [2, 3])
    def test_exactly_two_symmetric_operations(self, m, census2, census3):
        census = {2: census2, 3: census3}[m]
        symmetric = [op for op in census if is_symmetric(op)]
        assert symmetric == sorted([left_symmetric(m), right_symmetric(m)])
        for op in census:
            singleton = orbit(op) == frozenset({op})
            assert singleton == is_symmetric(op)
            assert singleton == (classify_symmetry(op) != "none")

    def test_exactly_two_symmetric_operations_m4(self, census4):
        symmetric = [op for op in census4 if is_symmetric(op)]
        assert symmetric == sorted([left_symmetric(4), right_symmetric(4)])
        assert [classify_symmetry(op) for op in symmetric] == ["left", "right"]


class TestImage:
    def test_constant_table(self, m2_ops):
        assert image(m2_ops[0]) == frozenset({1})

    def test_right_projection(self, m2_ops):
        assert image(m2_ops[3]) == frozenset({1, 2})

    def test_full_image_m3(self, orbit6_ops):
        assert image(orbit6_ops[4]) == frozenset({1, 2, 3})


class TestInvariance:
    def test_cycle_has_a_noninvariant_pair(self, cycle3):
        assert not is_invariant({2, 3}, cycle3)
        assert invariance_violation({2, 3}, cycle3) == (2, 3, 1)

    def test_fixed_point_singleton(self, cycle3):
        assert is_invariant({1}, cycle3)

    def test_whole_set_always_invariant(self, census3):
        for op in census3:
            assert is_invariant({1, 2, 3}, op)

    def test_empty_set_vacuously_invariant(self, cycle3):
        assert is_invariant(frozenset(), cycle3)

    def test_member_out_of_range_rejected(self, cycle3):
        with pytest.raises(FormatError):
            is_invariant({0, 1}, cycle3)


class TestInvariantSubsets:
    def test_all_subsets_invariant_example(self, all_invariant3):
        subsets = enumerate_invariant_subsets(all_invariant3)
        assert len(subsets) == 8
        assert subsets[0] == frozenset()

    def test_cycle_subsets(self, cycle3):
        assert enumerate_invariant_subsets(cycle3) == [
            frozenset(),
            frozenset({1}),
            frozenset({1, 2, 3}),
        ]

    def test_m1(self):
        assert enumerate_invariant_subsets(Operation([[1]])) == [
            frozenset(),
            frozenset({1}),
        ]

    def test_budget_guard(self, cycle3):
        with pytest.raises(CapacityError):
            enumerate_invariant_subsets(cycle3, max_m=2)

    def test_matches_per_subset_checks(self, census3):
        for op in census3:
            listed = set(enumerate_invariant_subsets(op))
            for size in range(4):
                for members in itertools.combinations((1, 2, 3), size):
                    assert (frozenset(members) in listed) == is_invariant(members, op)


class TestPowerSequences:
    def test_cycle_element(self, cycle3):
        got = classify_power_sequence(2, cycle3)
        assert got.tag == "periodic"
        assert got.period == 2
        assert got.cycle == frozenset({2, 3})

    def test_fixed_point(self, cycle3):
        got = classify_power_sequence(1, cycle3)
        assert (got.tag, got.period, got.cycle) == ("periodic", 1, frozenset({1}))

    def test_convergent_under_constant_table(self, m2_ops):
        got = classify_power_sequence(2, m2_ops[0])
        assert got.tag == "convergent"
        assert got.entry == 1
        assert got.limit == 1

    def test_eventually_periodic_exists_on_four_symbols(self):
        op = Operation(MONOGENIC4)
        got = classify_power_sequence(1, op)
        assert got.tag == "eventually_periodic"
        assert got.entry == 1
        assert got.period == 2
        assert got.cycle == frozenset({2, 4})
        assert 1 not in got.cycle

    @pytest.mark.parametrize("start", [0, -1, 4])
    def test_start_index_range_checked(self, cycle3, start):
        with pytest.raises(FormatError, match=f"start index {start} outside 1..3"):
            power_sequence(start, cycle3, 3)
        with pytest.raises(FormatError, match=f"start index {start} outside 1..3"):
            classify_power_sequence(start, cycle3)

    def test_limit_undefined_for_cycles(self, cycle3):
        with pytest.raises(ValueError):
            classify_power_sequence(2, cycle3).limit

    def test_classification_matches_unrolled_sequence(self, census2, census3):
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                for i in range(1, m + 1):
                    seq = power_sequence(i, op, 2 * m)
                    got = classify_power_sequence(i, op)
                    if got.tag == "periodic":
                        assert seq[got.period] == i
                        assert all(seq[n] != i for n in range(1, got.period))
                        assert set(seq[: got.period]) == set(got.cycle)
                    elif got.tag == "convergent":
                        limit = got.limit
                        assert op(limit, limit) == limit
                        assert all(seq[n] == limit for n in range(got.entry, 2 * m + 1))
                        assert seq[got.entry - 1] != limit
                    else:
                        assert i not in got.cycle and got.period > 1

    def test_dichotomy_holds_up_to_three_symbols(self, census2, census3):
        # On <= 3 symbols every squaring orbit is periodic or convergent;
        # the monogenic four-symbol table above shows the third class is real.
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                for i in range(1, m + 1):
                    assert classify_power_sequence(i, op).tag in (
                        "periodic",
                        "convergent",
                    )


class TestClosure:
    def test_already_closed_singleton(self, all_invariant3):
        assert closure({2}, all_invariant3) == frozenset({2})

    def test_cycle_generates_everything(self, cycle3):
        assert closure({2}, cycle3) == frozenset({1, 2, 3})

    def test_empty_set_is_a_fixed_point(self, cycle3):
        assert closure(frozenset(), cycle3) == frozenset()

    def test_idempotent_monotone_invariant(self, census3):
        all_subsets = [
            frozenset(c)
            for size in range(4)
            for c in itertools.combinations((1, 2, 3), size)
        ]
        for op in census3:
            for K in all_subsets:
                J = closure(K, op)
                assert K <= J
                assert closure(J, op) == J
                assert is_invariant(J, op)
                for L in all_subsets:
                    if K <= L:
                        assert J <= closure(L, op)
