"""The batch check battery used by the verify command."""

import pytest

from cubal import verify
from cubal.cubic import CubicMatrix
from cubal.operations import Operation
from cubal.structure import AccompanyingElement, SpannedSubspace
from cubal.verify import (
    check_accompanying,
    check_commutativity,
    check_isomorphisms,
    check_plenary_powers,
    check_subalgebras,
    check_zero_divisors,
    verify_census,
    verify_operation,
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


def test_reports_are_deterministic():
    assert verify_census(2) == verify_census(2)


def test_zero_divisor_check_fails_on_a_non_annihilating_witness(monkeypatch):
    op = Operation(CYCLE3)
    assert check_zero_divisors(op)
    monkeypatch.setattr(
        verify, "left_zero_divisor_witness", lambda a, op: CubicMatrix.basis(op.m, 1, 1, 1)
    )
    assert not check_zero_divisors(op)


def test_accompanying_check_fails_on_a_wrong_dense_product(monkeypatch):
    op = Operation(CYCLE3)
    assert check_accompanying(op)
    mul = CubicMatrix.mul
    monkeypatch.setattr(
        CubicMatrix, "mul", lambda x, y, op: mul(x, y, op) + CubicMatrix.basis(x.m, 1, 1, 1)
    )
    assert not check_accompanying(op)


def test_accompanying_check_fails_on_a_wrong_triple_rule(monkeypatch):
    op = Operation(CYCLE3)
    monkeypatch.setattr(
        verify,
        "_basis_product_triple",
        lambda op, s, t: None if s[2] != t[0] else (t[2], op(s[1], t[1]), s[0]),
    )
    assert not check_accompanying(op)


def test_accompanying_check_fails_when_the_map_drops_a_fiber(monkeypatch):
    op = Operation(CYCLE3)
    assert check_accompanying(op)
    image = verify.accompanying_image

    def drop_last_fiber(x):
        coeffs = [list(row) for row in image(x).coeffs]
        coeffs[-1][-1] = 0
        return AccompanyingElement(coeffs)

    monkeypatch.setattr(verify, "accompanying_image", drop_last_fiber)
    verify._accompanying_trials.cache_clear()
    assert not check_accompanying(op)


def test_accompanying_check_fails_on_an_unbalanced_trial(monkeypatch):
    # images and rank stay right; only the trial elements see the mutation
    op = Operation(CYCLE3)
    balance = verify._fiber_balance
    monkeypatch.setattr(verify, "_fiber_balance", lambda x: balance(x).scale(2))
    assert not check_accompanying(op)


def test_table_free_facts_are_computed_once_per_m():
    ops = [Operation(CYCLE3), Operation([[1, 1, 1], [1, 1, 1], [1, 1, 1]])]
    assert all(check_accompanying(op) for op in ops)
    info = verify._accompanying_trials.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


def test_subalgebra_check_fails_when_the_image_ideal_drops_a_triple(monkeypatch):
    op = Operation(CYCLE3)
    assert check_subalgebras(op)
    span = verify.image_ideal_span
    monkeypatch.setattr(
        verify,
        "image_ideal_span",
        lambda op: SpannedSubspace(op.m, span(op).triples - {min(span(op).triples)}),
    )
    assert not check_subalgebras(op)


def test_subalgebra_check_fails_on_a_non_invariant_subset(monkeypatch):
    # {2, 3} is not closed in the cyclic group: a(2, 2) = 3 but a(2, 3) = 1
    op = Operation(CYCLE3)
    subsets = verify.enumerate_invariant_subsets
    monkeypatch.setattr(
        verify, "enumerate_invariant_subsets", lambda op: subsets(op) + [frozenset({2, 3})]
    )
    assert not check_subalgebras(op)
