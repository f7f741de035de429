"""The batch check battery used by the verify command."""

import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from cubal import verify
from cubal.cli import main
from cubal.cubic import CubicMatrix
from cubal.linalg import det
from cubal.operations import Operation, left_symmetric, orbit, right_symmetric
from cubal.enumeration import collect_operations, orbit_census
from cubal.structure import AccompanyingElement, accompanying_image
from cubal.verify import (
    check_accompanying,
    check_characters,
    check_commutativity,
    check_isomorphisms,
    check_plenary_powers,
    check_subalgebras,
    check_zero_divisors,
    verify_census,
    verify_operation,
    zero_divisor_trials,
)

from conftest import CYCLE3
from test_centre_and_radical import semigroup_algebra_dims

CHECK_KEYS = (
    "theorem_1",
    "theorem_2",
    "theorem_3",
    "theorem_4",
    "commutativity",
    "zero_divisors",
    "plenary_powers",
)


@pytest.fixture(autouse=True)
def fresh_accompanying_cache():
    """No test sees a table-free theorem_3 result cached by another, mutated or not."""
    verify._accompanying_trials.cache_clear()
    yield
    verify._accompanying_trials.cache_clear()


def test_single_operation_report_shape():
    doc = verify_operation(Operation(CYCLE3))
    assert doc["operation"] == CYCLE3
    for key in CHECK_KEYS:
        assert doc[key] is True
    assert doc["witnesses"]["pair"] == [[1, 1, 1], [1, 1, 2]]


def test_m1_battery():
    doc = verify_census(1)
    assert doc["all_pass"] is True
    assert doc["total"] == 1


def test_m2_battery_every_check_green(census2):
    doc = verify_census(2)
    assert doc["all_pass"] is True
    assert doc["total"] == 8
    assert [entry["operation"] for entry in doc["results"]] == [
        [list(r) for r in op.rows] for op in census2
    ]


def test_battery_lists_the_report_keys_in_order():
    assert [key for key, _ in verify.battery()] == list(CHECK_KEYS)


def test_a_check_passes_only_with_true(monkeypatch):
    # a truthy verdict that is not True, such as a count, fails its key
    monkeypatch.setattr(verify, "check_characters", lambda op: 1)
    doc = verify_census(1)
    assert doc["results"][0]["theorem_2"] == 1
    assert verify.failed_checks(doc["results"][0]) == ["theorem_2"]
    assert doc["all_pass"] is False


def test_reports_are_deterministic():
    assert verify_census(2) == verify_census(2)


def test_zero_divisor_check_fails_on_a_non_annihilating_witness(monkeypatch):
    op = Operation(CYCLE3)
    assert check_zero_divisors(op)
    monkeypatch.setattr(
        verify, "left_zero_divisor_witness", lambda a, op: CubicMatrix.basis(op.m, 1, 1, 1)
    )
    assert not check_zero_divisors(op)


def test_zero_divisor_check_solves_exactly_the_trials(census3, monkeypatch):
    # the timing tool solves the trials; they must be what the check solves
    solved = []
    solve = verify.left_zero_divisor_witness
    monkeypatch.setattr(
        verify, "left_zero_divisor_witness", lambda a, op: solved.append(a) or solve(a, op)
    )
    for op in census3[::10]:
        solved.clear()
        trials = list(zero_divisor_trials(op))
        assert check_zero_divisors(op)
        assert solved == trials and len(trials) == verify.ZERO_DIVISOR_TRIALS
        assert all(v.denominator == 1 for a in trials for v in map(Fraction, a.entries))
    # half the draws, for m >= 2, copy the first outer slice over the last
    draws = [a for op in census3 for a in zero_divisor_trials(op)]
    singular = sum(a.entries[:9] == a.entries[18:] for a in draws)
    assert 0.3 < singular / len(draws) < 0.7


@pytest.mark.parametrize("m", [2, 3])
def test_zero_divisor_check_fails_when_a_left_projection_has_no_witness(monkeypatch, m):
    # under the left projection every element is a left zero divisor
    op = left_symmetric(m)
    assert check_zero_divisors(op)
    monkeypatch.setattr(verify, "left_zero_divisor_witness", lambda a, op: None)
    assert not check_zero_divisors(op)


@pytest.mark.parametrize("m", [2, 3])
def test_zero_divisor_check_fails_when_det_misses_a_singular_trial(monkeypatch, m):
    # under the right projection a witness exists exactly when det == 0
    op = right_symmetric(m)
    assert check_zero_divisors(op)
    assert any(det(accompanying_image(a).coeffs) == 0 for a in zero_divisor_trials(op))
    monkeypatch.setattr(verify, "det", lambda rows: 1)
    assert not check_zero_divisors(op)


def fraction_trials(op):
    """The draws of ``zero_divisor_trials`` made the way they were first made:
    a Fraction per entry, the slice copy on those entries, then the int multiple."""
    m = op.m
    rng = random.Random(f"{verify.RNG_SEED}:{op.flat()}")
    for _ in range(verify.ZERO_DIVISOR_TRIALS):
        a = CubicMatrix(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m**3)])
        if rng.random() < 0.5 and m >= 2:
            a = CubicMatrix(m, a.entries[: (m - 1) * m * m] + a.entries[: m * m])
        yield a.integer_multiple()


def test_zero_divisor_trials_match_the_fraction_draws(census2, census3):
    for op in [Operation([[1]])] + census2 + census3:
        got, want = list(zero_divisor_trials(op)), list(fraction_trials(op))
        assert [(a.slabs, a.d) for a in got] == [(a.slabs, a.d) for a in want]
        assert [a.entries for a in got] == [a.entries for a in want]
        assert all(type(v) is int for a in got for v in a.entries)


def test_random_cubic_is_the_fraction_draw_in_int_form():
    rng, ref = random.Random(3), random.Random(3)
    for m in (1, 2, 3, 4, 5):
        x = verify.random_cubic(m, rng)
        draws = [Fraction(ref.randint(-9, 9), ref.randint(1, 4)) for _ in range(m**3)]
        want = CubicMatrix(m, draws)
        assert (x.slabs, x.d) == (want.slabs, want.d)
        assert x.entries == want.entries
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seeds", [range(50), ["20250809:(1, 2, 2, 2)", "x"]], ids=["ints", "strings"])
def test_random_cubic_draws_as_randint_does(seeds):
    # random_cubic draws with getrandbits under randint's rejection rule; it
    # must give randint's draws and leave the generator in randint's state,
    # on every Python the tests run on
    for seed in seeds:
        rng, ref = random.Random(seed), random.Random(seed)
        for m in (1, 2, 3, 4, 5):
            x = verify.random_cubic(m, rng)
            draws = [(ref.randint(-9, 9), ref.randint(1, 4)) for _ in range(m**3)]
            want = CubicMatrix(m, [Fraction(p, q) for p, q in draws])
            assert (x.slabs, x.d) == (want.slabs, want.d)
            assert x.entries == want.entries
            assert rng.getstate() == ref.getstate()


def test_accompanying_trials_run_on_int_multiples():
    # phi is bilinear, so the law phi(xy) = phi(x) phi(y) loses nothing on the
    # int multiples of the seeded dense pair; they are the draws times d
    for m in (1, 2, 3, 4):
        rng = random.Random(verify.RNG_SEED)
        for _ in range(2 * verify.ACCOMPANYING_TRIALS):
            verify.random_cubic(m, rng)
        draws = verify.random_cubic(m, rng), verify.random_cubic(m, rng)
        pairs, (x, y, phi_xy) = verify._accompanying_trials(m)
        assert (x.d, y.d) == (1, 1)
        assert (x.slabs, y.slabs) == tuple(draw.slabs for draw in draws)
        assert all(balanced.d == 1 and z.d == 1 for balanced, z in pairs)
        assert {type(v) for row in phi_xy for v in row} == {int}


def test_accompanying_check_fails_on_a_wrong_dense_product(monkeypatch):
    op = Operation(CYCLE3)
    assert check_accompanying(op)
    mul = CubicMatrix.mul
    monkeypatch.setattr(
        CubicMatrix, "mul", lambda x, y, op: mul(x, y, op) + CubicMatrix.basis(x.m, 1, 1, 1)
    )
    assert not check_accompanying(op)


def test_accompanying_check_fails_when_the_product_drops_a_term(monkeypatch, census3):
    # the product misses the one term X[i, l, k] Y[k, n, r] of the first
    # meeting pair of nonzero entries, so phi(xy) moves by that term
    mul = CubicMatrix.mul

    def drop_one_term(x, y, op):
        m = x.m
        for (s, u), (t, v) in itertools.product(x.nonzero_items(), y.nonzero_items()):
            i, l, k = s // (m * m), s // m % m, s % m
            if t // (m * m) == k:
                n, r = t // m % m, t % m
                term = CubicMatrix.basis(m, i + 1, op(l + 1, n + 1), r + 1).scale(u * v)
                return mul(x, y, op) - term
        return mul(x, y, op)

    for op in census3[::7] + [Operation([[1]])]:
        assert check_accompanying(op)
        # the dense pair's law fails alone, whatever the kernel trials say
        x, y, phi_xy = verify._accompanying_trials(op.m)[1]
        assert accompanying_image(drop_one_term(x, y, op)).coeffs != phi_xy
        monkeypatch.setattr(CubicMatrix, "mul", drop_one_term)
        assert not check_accompanying(op)
        assert verify_operation(op)["theorem_3"] is False
        monkeypatch.setattr(CubicMatrix, "mul", mul)


def test_accompanying_check_fails_when_the_map_drops_a_fiber(monkeypatch):
    op = Operation(CYCLE3)
    assert check_accompanying(op)
    image = verify.accompanying_image

    def drop_last_fiber(x):
        coeffs = [list(row) for row in image(x).coeffs]
        coeffs[-1][-1] = 0
        return AccompanyingElement(tuple(map(tuple, coeffs)))

    monkeypatch.setattr(verify, "accompanying_image", drop_last_fiber)
    verify._accompanying_trials.cache_clear()
    assert not check_accompanying(op)


def test_accompanying_check_fails_on_an_unbalanced_trial(monkeypatch):
    # the basis images stay right; only the trial elements see the mutation
    op = Operation(CYCLE3)
    balance = verify._fiber_balance
    monkeypatch.setattr(verify, "_fiber_balance", lambda x: balance(x).scale(2))
    assert not check_accompanying(op)


def test_accompanying_check_fails_when_every_matrix_reads_as_in_the_kernel(monkeypatch):
    # only the cross-check of in_kernel_ideal against the fiber sums sees this:
    # the products of the balanced trials lie in the kernel ideal anyway
    op = Operation(CYCLE3)
    assert check_accompanying(op)
    verify._accompanying_trials.cache_clear()  # the fixture clears it again after
    monkeypatch.setattr(verify, "in_kernel_ideal", lambda x: True)
    assert not check_accompanying(op)


def test_table_free_facts_are_computed_once_per_m():
    ops = [Operation(CYCLE3), Operation([[1, 1, 1], [1, 1, 1], [1, 1, 1]])]
    assert all(check_accompanying(op) for op in ops)
    info = verify._accompanying_trials.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_characters_check_fails_on_a_spurious_character(monkeypatch, capsys):
    # a character search that finds one form too many turns theorem_2 red,
    # alone, in the battery and on the command line
    search = verify.character_search
    monkeypatch.setattr(
        verify, "character_search", lambda op: search(op) + [CubicMatrix.basis(op.m, 1, 1, 1)]
    )
    for op in (Operation([[1]]), Operation(CYCLE3)):
        entry = verify_operation(op)
        assert [key for key in CHECK_KEYS if entry[key] is not True] == ["theorem_2"]
    assert main(["verify", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["results"]["all_pass"] is False
    assert captured.err.count("cubal: checks ['theorem_2'] failed for table") == 8


def test_characters_check_fails_on_a_wrong_form(monkeypatch):
    # one form, as many as expected, but 2 E(1,1,1) is not multiplicative
    op = Operation([[1]])
    assert check_characters(op)
    monkeypatch.setattr(
        verify, "character_search", lambda op: [CubicMatrix.basis(1, 1, 1, 1).scale(2)]
    )
    assert not check_characters(op)
    assert verify.failed_checks(verify_operation(op)) == ["theorem_2"]


def test_isomorphism_check_fails_when_pi_does_not_carry_the_table(monkeypatch):
    op = Operation(CYCLE3)
    assert check_isomorphisms(op)
    act = verify.act
    monkeypatch.setattr(verify, "act", lambda pi, a: act(pi.inverse(), a))
    assert not check_isomorphisms(op)


def test_isomorphism_check_fails_when_act_ignores_pi(monkeypatch, census3):
    # a relabeling that returns its table unchanged makes every pi look like an
    # automorphism; only the projections, which every pi fixes, stay green
    monkeypatch.setattr(verify, "act", lambda pi, a: a)
    assert not check_isomorphisms(Operation(CYCLE3))
    green = {op for op in census3 if check_isomorphisms(op)}
    assert green == {left_symmetric(3), right_symmetric(3)}


def test_isomorphism_check_tries_every_permutation(monkeypatch, census2, census3):
    # automorphisms included: one isomorphism check per pi in S_m, for every table
    calls = []
    check = verify.verify_isomorphism
    monkeypatch.setattr(
        verify, "verify_isomorphism", lambda a, b, pi: calls.append(pi) or check(a, b, pi)
    )
    for op in collect_operations(1) + census2 + census3:
        calls.clear()
        assert check_isomorphisms(op)
        assert len(calls) == len(set(calls)) == math.factorial(op.m)


def test_isomorphism_check_holds_on_every_magma_of_order_3():
    # Theorem 1's argument uses no associativity
    for cells in itertools.product((1, 2, 3), repeat=9):
        op = Operation([cells[:3], cells[3:6], cells[6:]], unchecked=True)
        assert check_isomorphisms(op), op


def test_m1_commutativity_witness_is_the_dense_pair():
    ok, witness = check_commutativity(Operation([[1]]))
    assert ok
    assert [len(entries) for entries in witness["pair"]] == [1, 1]


def test_m1_commutativity_fails_on_a_non_commuting_product(monkeypatch):
    op = Operation([[1]])
    mul = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda x, y, op: mul(x, y, op) + x)
    assert not check_commutativity(op)[0]


def test_m1_commutativity_fails_when_the_unit_is_not_idempotent(monkeypatch):
    op = Operation([[1]])
    mul = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda x, y, op: mul(x, y, op).scale(2))
    assert not check_commutativity(op)[0]


@pytest.mark.parametrize("op", [Operation([[1, 2], [2, 1]]), Operation(CYCLE3)], ids=["m2", "m3"])
def test_commutativity_fails_under_a_symmetrized_product(monkeypatch, op):
    assert check_commutativity(op)[0]
    mul = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda x, y, op: mul(x, y, op) + mul(y, x, op))
    assert not check_commutativity(op)[0]


def test_plenary_check_fails_on_a_product_that_doubles(monkeypatch):
    op = Operation(CYCLE3)
    assert check_plenary_powers(op)
    mul = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda x, y, op: mul(x, y, op).scale(2))
    assert not check_plenary_powers(op)


def test_plenary_check_fails_when_a_square_keeps_its_middle_index(monkeypatch):
    op = Operation(CYCLE3)
    monkeypatch.setattr(
        verify,
        "_basis_product_triple",
        lambda op, s, t: None if s[2] != t[0] else (s[0], s[1], t[2]),
    )
    assert not check_plenary_powers(op)


def test_plenary_check_fails_on_a_power_sequence_off_by_one(monkeypatch):
    op = Operation(CYCLE3)
    power_sequence = verify.power_sequence
    monkeypatch.setattr(
        verify, "power_sequence", lambda i, op, steps: power_sequence(i, op, steps + 1)[1:]
    )
    assert not check_plenary_powers(op)


def test_plenary_check_fails_when_the_index_class_is_wrong(monkeypatch):
    # the walks still match; only the comparison of the two classes sees this
    op = Operation(CYCLE3)
    assert check_plenary_powers(op)
    classify = verify.classify_power_sequence
    monkeypatch.setattr(
        verify,
        "classify_power_sequence",
        lambda i, op: dataclasses.replace(classify(i, op), entry=classify(i, op).entry + 1),
    )
    assert not check_plenary_powers(op)


def opposite(op):
    """The table of a(n, j) at (j, n)."""
    return Operation([list(col) for col in zip(*op.rows)], unchecked=True)


@functools.cache
def minima(m):
    """The orbit minima for m, with their orbit sizes."""
    return orbit_census(m).representatives


@pytest.mark.parametrize(
    "m, self_dual, a001423", [(1, 1, 1), (2, 3, 4), (3, 12, 18), (4, 64, 126), (5, 405, 1160)]
)
def test_self_dual_orbit_census(m, self_dual, a001423):
    # an orbit is self-dual when the transposes of its tables lie in it; the
    # orbits under relabeling and transposing together then number A001423(m)
    count = sum(min(orbit(opposite(op)), key=Operation.flat) == op for op, _ in minima(m))
    assert count == self_dual
    assert len(minima(m)) + count == 2 * a001423


def three_nilpotent(op):
    """All triple products a(a(i, j), k) are one element, the zero."""
    rows = op.rows
    return len({rows[v - 1][k] for row in rows for v in row for k in range(op.m)}) == 1


def is_monoid(op):
    """Some e has a(e, s) = a(s, e) = s for every s."""
    S = tuple(range(1, op.m + 1))
    return any(
        op.rows[e - 1] == S and all(row[e - 1] == s for s, row in zip(S, op.rows)) for e in S
    )


def is_regular(op):
    """Every s has an x with a(a(s, x), s) = s."""
    rows = op.rows
    return all(any(rows[rows[s][x] - 1][s] == s + 1 for x in range(op.m)) for s in range(op.m))


def is_inverse(op):
    """Regular, and the idempotents commute."""
    rows = op.rows
    idempotents = [e for e in range(op.m) if rows[e][e] == e + 1]
    return is_regular(op) and all(rows[e][f] == rows[f][e] for e in idempotents for f in idempotents)


TABLE_CLASSES = {
    "3-nilpotent": three_nilpotent,
    "commutative": lambda op: op == opposite(op),
    "monoid": is_monoid,
    "inverse": is_inverse,
    "regular": is_regular,
}


def class_counts(representatives):
    """Per class of TABLE_CLASSES, the (op, size) pairs in it: how many, and
    their sizes summed."""
    counts = {}
    for name, is_in in TABLE_CLASSES.items():
        sizes = [size for op, size in representatives if is_in(op)]
        counts[name] = (len(sizes), sum(sizes))
    return counts


def three_nilpotent_labelled(n):
    """Labelled 3-nilpotent tables on n symbols: a zero z, then S^2 = B holding z,
    then a map from (S - B) x (S - B) onto B - {z}, counted by inclusion-exclusion."""
    return n * sum(
        math.comb(n - 1, b - 1)
        * sum((-1) ** i * math.comb(b - 1, i) * (b - i) ** ((n - b) ** 2) for i in range(b))
        for b in range(1, n + 1)
    )


CLASS_COUNTS = {  # per m = 1..5: orbits, then labelled tables
    "3-nilpotent": ((1, 1, 2, 10, 119), (1, 2, 9, 184, 11725)),
    "commutative": ((1, 3, 12, 58, 325), (1, 6, 63, 1140, 30730)),
    "monoid": ((1, 2, 7, 35, 228), (1, 4, 33, 624, 20610)),
    "inverse": ((1, 2, 5, 16, 52), (1, 4, 24, 272, 4125)),
    "regular": ((1, 4, 13, 67, 355), (1, 6, 50, 944, 25267)),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_class_counts_over_the_orbit_minima(m):
    got = class_counts(minima(m))
    want = {name: (orbits[m - 1], labelled[m - 1]) for name, (orbits, labelled) in CLASS_COUNTS.items()}
    assert got == want
    assert got["3-nilpotent"][1] == three_nilpotent_labelled(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_class_counts_match_a_labelled_recount(m, census2, census3, census4):
    # each class is invariant under relabeling, so weighting the minima by orbit size counts it
    ops = {1: collect_operations(1), 2: census2, 3: census3, 4: census4}[m]
    recount = {name: sum(map(is_in, ops)) for name, is_in in TABLE_CLASSES.items()}
    assert recount == {name: labelled for name, (_, labelled) in class_counts(minima(m)).items()}


def semisimple(op):
    """dim Rad Q[S] = 0, so Q[S] and the ACM are semisimple."""
    return semigroup_algebra_dims(op)[2] == 0


def outside_the_chain(representatives):
    """The tables of (op, size) pairs that break inverse ⊆ semisimple ⊆ regular.
    Munn: the algebra of a finite inverse semigroup is semisimple; Munn and
    Ponizovskii: a semisimple Q[S] has S regular."""
    inverse, regular = TABLE_CLASSES["inverse"], TABLE_CLASSES["regular"]
    return [op for op, _ in representatives if not inverse(op) <= semisimple(op) <= regular(op)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_inverse_within_semisimple_within_regular(m):
    assert outside_the_chain(minima(m)) == []


def test_the_chain_fails_when_inverse_drops_its_idempotent_clause(monkeypatch):
    # every regular table would then be inverse: 4 orbits at m = 2, of which 2 are semisimple
    monkeypatch.setitem(TABLE_CLASSES, "inverse", is_regular)
    assert class_counts(minima(2))["inverse"] == (4, 6)
    assert len(outside_the_chain(minima(2))) == 2


def test_the_one_semisimple_minimum_that_is_not_inverse_is_a_rees_matrix_semigroup():
    # M0({1}; 2, 2; P): zero 1, then (i, l) labelled 2 + 2(i - 1) + (l - 1), and
    # (i, l)(j, u) = (i, u) exactly when P[l][j] = 1, else the zero
    P, cells = ((0, 1), (1, 1)), [(i, l) for i in (1, 2) for l in (1, 2)]

    def product(s, t):
        if s == 1 or t == 1:
            return 1
        (i, l), (j, u) = cells[s - 2], cells[t - 2]
        return cells.index((i, u)) + 2 if P[l - 1][j - 1] else 1

    rees = tuple(tuple(product(s, t) for t in range(1, 6)) for s in range(1, 6))
    assert rees == ((1, 1, 1, 1, 1), (1, 1, 1, 2, 3), (1, 2, 3, 2, 3), (1, 1, 1, 4, 5), (1, 4, 5, 4, 5))
    got = [op.rows for op, _ in minima(5) if semisimple(op) and not is_inverse(op)]
    assert got == [rees]


def test_subalgebra_check_fails_under_the_opposite_product(monkeypatch):
    # a product computed on the opposite table swaps a(S, J) and a(J, S), so
    # theorem_4 turns red exactly on the tables whose left and right ideals differ
    mul = CubicMatrix.mul
    monkeypatch.setattr(CubicMatrix, "mul", lambda x, y, op: mul(x, y, opposite(op)))
    for m, red in ((1, 0), (2, 2), (3, 50)):
        doc = verify_census(m)
        assert sum(entry["theorem_4"] is False for entry in doc["results"]) == red


def test_subalgebra_check_fails_when_a_closure_test_skips_a_member(monkeypatch, census3):
    escape = verify._escape
    monkeypatch.setattr(
        verify, "_escape", lambda rows, lefts, rights, J: escape(rows, tuple(lefts)[:-1], rights, J)
    )
    # in the cyclic group a(2, 2) = 3 leaves {1, 2}; skipping 2 on the left misses it
    assert not check_subalgebras(Operation(CYCLE3))
    assert verify_operation(Operation(CYCLE3))["theorem_4"] is False
    assert sum(not check_subalgebras(op) for op in census3) > 0


def test_subalgebra_check_fails_when_an_off_diagonal_square_is_not_zero(monkeypatch):
    # the left factor's last index is read as 1, so E(i, j, k) E(1, n, r) never
    # vanishes; the subset probes end in 1 already, so only y y sees it
    mul = CubicMatrix.mul

    def always_meet(x, y, op):
        m, moved = x.m, [0] * x.m**3
        for flat, v in x.nonzero_items():
            moved[flat - flat % m] += v
        return mul(CubicMatrix(m, moved), y, op)

    ops = [Operation(table) for table in ([[1, 1], [1, 1]], CYCLE3)]
    closures = [list(verify.subset_closures(op)) for op in ops]
    monkeypatch.setattr(CubicMatrix, "mul", always_meet)
    assert [list(verify.subset_closures(op)) for op in ops] == closures
    assert not any(check_subalgebras(op) for op in ops)


SUBSET_COUNTS = {  # subsemigroups, left ideals, right ideals, two-sided, tables with left != right
    (2, "minima"): (13, 9, 9, 7, 2),
    (3, "minima"): (128, 74, 74, 57, 12),
    (4, "minima"): (1857, 903, 903, 668, 129),
    (2, "labelled"): (20, 14, 14, 12, 2),
    (3, "labelled"): (578, 341, 341, 281, 50),
    (4, "labelled"): (33420, 16682, 16682, 12876, 2328),
}


@pytest.mark.parametrize("m, tables", list(SUBSET_COUNTS), ids=lambda v: str(v))
def test_subset_closure_counts(m, tables, census2, census3, census4):
    # nonempty subsets only, counted through the check's products
    if tables == "minima":
        ops = [op for op, _ in orbit_census(m).representatives]
    else:
        ops = {2: census2, 3: census3, 4: census4}[m]
    counts = [0] * 5
    for op in ops:
        closures = [c for _, c in verify.subset_closures(op)]
        counts[0] += sum(c[0] for c in closures)
        counts[1] += sum(c[1] for c in closures)
        counts[2] += sum(c[2] for c in closures)
        counts[3] += sum(c[1] and c[2] for c in closures)
        counts[4] += any(c[1] != c[2] for c in closures)
    assert tuple(counts) == SUBSET_COUNTS[m, tables]


CLOSURE_ROWS = {  # per table as in SUBSET_COUNTS, over the orbit minima and weighted by orbit size
    4: ((1857, 903, 903, 668, 129), (33420, 16682, 16682, 12876, 2328)),
    5: ((33475, 14341, 14341, 10304, 1541), (3118102, 1370902, 1370902, 1010832, 147642)),
}


@pytest.mark.parametrize("m", list(CLOSURE_ROWS))
def test_subset_closure_rows_over_the_orbit_minima(m):
    # the closure verdicts are invariant under relabeling, so the weighted row is the labelled one
    rows = [0] * 5, [0] * 5
    for op, size in orbit_census(m).representatives:
        closures = [c for _, c in verify.subset_closures(op)]
        row = (
            sum(c[0] for c in closures),
            sum(c[1] for c in closures),
            sum(c[2] for c in closures),
            sum(c[1] and c[2] for c in closures),
            any(c[1] != c[2] for c in closures),
        )
        for counts, weight in zip(rows, (1, size)):
            for n, value in enumerate(row):
                counts[n] += weight * value
    assert tuple(map(tuple, rows)) == CLOSURE_ROWS[m]


def magmas2():
    """The 16 tables on two symbols, associative or not."""
    return [
        Operation([list(cells[:2]), list(cells[2:])], unchecked=True)
        for cells in itertools.product((1, 2), repeat=4)
    ]


@pytest.mark.parametrize("tables", ["m1", "m2", "m3", "m4", "magmas2"])
def test_the_probe_product_holds_a_s_t_at_each_outer_cell(tables, census2, census3, census4):
    # theorem_4's product side reads the table only through X U
    ops = {
        "m1": lambda: collect_operations(1), "m2": lambda: census2, "m3": lambda: census3,
        "m4": lambda: census4, "magmas2": magmas2,
    }[tables]()
    for op in ops:
        m, S = op.m, range(1, op.m + 1)
        x, u, _ = verify._closure_probes(m)
        product = x.mul(u, op)
        for s, t in itertools.product(S, repeat=2):
            held = [(j, product.entry(s, j, t)) for j in S if product.entry(s, j, t)]
            assert held == [(op.rows[s - 1][t - 1], 1)]


def test_subalgebra_check_fails_when_the_product_drops_left_slabs(monkeypatch):
    # a product that keeps only the left factor's first slab: the probes must
    # carry every first index s, or a(s, t) for s >= 2 goes unread
    mul = CubicMatrix.mul

    def first_slab_only(x, y, op):
        mm = x.m * x.m
        return mul(CubicMatrix(x.m, [v if flat < mm else 0 for flat, v in enumerate(x.entries)]), y, op)

    assert check_subalgebras(Operation(CYCLE3))
    monkeypatch.setattr(CubicMatrix, "mul", first_slab_only)
    assert not check_subalgebras(Operation(CYCLE3))
    assert verify_operation(Operation(CYCLE3))["theorem_4"] is False


def test_plenary_check_fails_when_the_right_factor_mixes_its_slabs(monkeypatch, census3):
    # each slab of the right factor is replaced by the sum of all of them, so a
    # left term (i, l, k) also meets the right terms of first index other than k
    mul = CubicMatrix.mul

    def summed_right(x, y, op):
        m, mm = y.m, y.m * y.m
        total = [sum(y.entries[i * mm + jk] for i in range(m)) for jk in range(mm)]
        return mul(x, CubicMatrix(m, total * m), op)

    assert all(check_plenary_powers(op) for op in census3)
    monkeypatch.setattr(CubicMatrix, "mul", summed_right)
    assert not any(check_plenary_powers(op) for op in census3)
    assert verify_operation(Operation(CYCLE3))["plenary_powers"] is False
