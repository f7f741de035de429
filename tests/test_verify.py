"""The batch check battery used by the verify command."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from cubal import verify
from cubal.cli import main
from cubal.cubic import CubicMatrix
from cubal.operations import Operation
from cubal.enumeration import orbit_census
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


def opposite(op):
    """The table of a(n, j) at (j, n)."""
    return Operation([list(col) for col in zip(*op.rows)], unchecked=True)


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
