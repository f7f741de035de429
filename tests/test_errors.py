"""The four argument rules (an index, a size, a count, and the size the
arguments of one map share), each defined once in ``cubal.errors`` and applied once, where
a value enters the library; values the library builds skip them."""

import ast
import re
from pathlib import Path

import pytest

from cubal import operations
from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations, orbit_census
from cubal.errors import (
    CapacityError,
    FormatError,
    require_count,
    require_indices,
    require_size,
    same_size,
)
from cubal.operations import (
    Operation,
    Permutation,
    act,
    all_permutations,
    are_equivalent,
    classify_power_sequence,
    classify_symmetry,
    invariance_violation,
    left_symmetric,
    orbit,
    power_sequence,
    right_symmetric,
)
from cubal.structure import (
    is_character,
    left_zero_divisor_witness,
    permute_indices,
    right_zero_divisor_witness,
    verify_isomorphism,
)

from conftest import CYCLE3

SRC = Path(__file__).resolve().parent.parent / "src" / "cubal"
RULE_WORDS = ("outside 1..", "must be", "positive integer", "nonnegative", "mismatch", "different sizes")


class TestRules:
    def test_index(self):
        require_indices((1, 2, 3), 3, "entry")
        for v in (0, 4, True, 1.0, "1", None):
            with pytest.raises(FormatError, match=re.escape(f"entry {v!r} outside 1..3")):
                require_indices((1, v), 3, "entry")

    def test_size(self):
        assert require_size(2) == 2
        for n in (0, -1, True, 2.0, "2"):
            with pytest.raises(FormatError, match=re.escape(f"m must be a positive integer, got {n!r}")):
                require_size(n)
        with pytest.raises(CapacityError, match="^jobs must be a positive integer, got 0$"):
            require_size(0, "jobs", CapacityError)

    def test_count(self):
        assert require_count(0, "steps") == 0 and require_count(3, "steps") == 3
        for n in (-1, True, 2.0, "2", None):
            with pytest.raises(ValueError, match=re.escape(f"steps must be an int and nonnegative, got {n!r}")):
                require_count(n, "steps")
        with pytest.raises(FormatError, match="^--n must be an int and nonnegative, got -1$"):
            require_count(-1, "--n", FormatError)

    def test_same_size(self):
        op2, op3 = Operation([[1, 2], [2, 1]]), Operation(CYCLE3)
        assert same_size(op3, Permutation.identity(3)) == 3
        message = "^size mismatch, different sizes: Operation has m=2, Operation has m=3$"
        with pytest.raises(ValueError, match=message):
            same_size(op2, op3)
        with pytest.raises(FormatError, match="^size mismatch, different sizes: x has m=3, y has m=2$"):
            same_size(op3, op2, error=FormatError, names=("x", "y"))

    def test_no_other_source_raises_on_these_rules(self):
        # every string in a raise statement of src/, outside errors.py
        offending = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise):
                    for const in ast.walk(node):
                        if isinstance(const, ast.Constant) and isinstance(const.value, str):
                            if any(word in const.value for word in RULE_WORDS):
                                offending.append(f"{path.name}:{node.lineno}")
        assert offending == []


E2 = CubicMatrix.basis(2, 1, 1, 1)
OP2 = Operation([[1, 2], [2, 1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Permutation([2.0, 1.0]),
        lambda: Permutation([True, 2]),
        lambda: Permutation([2, 3]),
        lambda: Operation([[1, True], [1, 2]]),
        lambda: CubicMatrix.basis(2, 1, 1.0, 1),
        lambda: CubicMatrix.basis(True, 1, 1, 1),
        lambda: CubicMatrix(True, [0]),
        lambda: CubicMatrix("2", [0] * 8),
        lambda: CubicMatrix.zero(True),
        lambda: power_sequence(True, OP2, 2),
        lambda: classify_power_sequence(1.0, OP2),
        lambda: invariance_violation({True}, OP2),
        lambda: invariance_violation({1, 2.0}, OP2),
    ],
    ids=[
        "permutation-floats",
        "permutation-bool",
        "permutation-range",
        "table-bool",
        "basis-float-index",
        "basis-bool-m",
        "matrix-bool-m",
        "matrix-str-m",
        "zero-bool-m",
        "power-sequence-bool",
        "classify-power-sequence-float",
        "subset-bool",
        "subset-float",
    ],
)
def test_non_index_or_size_raises_format_error_at_the_call(call):
    with pytest.raises(FormatError):
        call()


@pytest.mark.parametrize(
    "make",
    [right_symmetric, left_symmetric, Permutation.identity, all_permutations],
    ids=["right_symmetric", "left_symmetric", "identity", "all_permutations"],
)
@pytest.mark.parametrize("n", [0, -1, True], ids=["zero", "minus-one", "bool"])
def test_a_size_that_is_not_positive_raises_format_error_at_the_call(make, n):
    # each made an m = 0 object, or the m = 1 one for True, like no other entry point
    with pytest.raises(FormatError, match=re.escape(f"m must be a positive integer, got {n!r}")):
        make(n)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda n: E2.plenary_power(n, OP2), "plenary power n"),
        (lambda n: power_sequence(1, OP2, n), "power sequence steps"),
    ],
    ids=["plenary_power", "power_sequence"],
)
@pytest.mark.parametrize("n", [True, 2.0, "2", None, -1], ids=["bool", "float", "str", "none", "minus-one"])
def test_a_count_that_is_not_a_nonnegative_int_raises_value_error(call, name, n):
    # unchecked, True took one step, and 2.0 and "2" failed inside range with a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int and nonnegative, got {n!r}")):
        call(n)


def test_an_empty_permutation_raises_format_error():
    with pytest.raises(FormatError, match="^m must be a positive integer, got 0$"):
        Permutation([])


@pytest.mark.parametrize(
    "call",
    [
        lambda op3: act(Permutation.identity(2), op3),
        lambda op3: are_equivalent(OP2, op3),
        lambda op3: Permutation.identity(2).compose(Permutation.identity(3)),
        lambda op3: E2 + CubicMatrix.zero(3),
        lambda op3: E2 - CubicMatrix.zero(3),
        lambda op3: E2.mul(CubicMatrix.zero(3), op3),
        lambda op3: E2.mul(E2, op3),
        lambda op3: verify_isomorphism(op3, op3, Permutation.identity(2)),
        lambda op3: permute_indices(Permutation.identity(3), E2),
        lambda op3: is_character(E2, op3),
        lambda op3: left_zero_divisor_witness(E2, op3),
        lambda op3: right_zero_divisor_witness(E2, op3),
    ],
    ids=[
        "act",
        "are_equivalent",
        "compose",
        "add",
        "sub",
        "mul-matrices",
        "mul-table",
        "verify_isomorphism",
        "permute_indices",
        "is_character",
        "left_zero_divisor_witness",
        "right_zero_divisor_witness",
    ],
)
def test_every_map_names_both_sizes(call, cycle3):
    with pytest.raises(ValueError, match=r"^size mismatch, different sizes: \w+ has m=\d, .* has m=\d$"):
        call(cycle3)


@pytest.mark.parametrize(
    "read",
    [
        lambda v: OP2(v, 1),
        lambda v: OP2(1, v),
        lambda v: Permutation([2, 1])(v),
        lambda v: E2.entry(v, 1, 1),
        lambda v: E2.entry(1, 1, v),
    ],
    ids=["operation-left", "operation-right", "permutation", "entry-first", "entry-last"],
)
@pytest.mark.parametrize("v", [0, -1, 3, True], ids=["zero", "minus-one", "m-plus-one", "bool"])
def test_a_read_outside_1_to_m_raises_format_error(read, v):
    # unchecked, 0 and -1 would read through Python's negative indexing and 3 raise IndexError
    with pytest.raises(FormatError, match=re.escape(f"index {v!r} outside 1..2")):
        read(v)


def test_table_walks_check_only_their_start_index(monkeypatch):
    # classify_symmetry and the squaring walks read the rows, not a(i, j)
    calls = []
    check = operations.require_indices
    monkeypatch.setattr(operations, "require_indices", lambda *a: calls.append(a) or check(*a))
    op = collect_operations(4)[-1]
    assert classify_symmetry(op) in ("right", "left", "both", "none")
    assert calls == []
    power_sequence(2, op, 40)
    classify_power_sequence(2, op)
    assert calls == [((2,), 4, "start index")] * 2


def test_act_returns_only_int_cells(census3):
    for images in ([2.0, 1.0], [True, 2], [2, True]):
        with pytest.raises(FormatError):
            act(Permutation(images), OP2)
    for op in census3:
        for pi in all_permutations(3):
            assert {type(v) for row in act(pi, op).rows for v in row} == {int}


def test_a_table_is_normalized_once(monkeypatch):
    calls = []
    normalize = operations._normalize_rows
    monkeypatch.setattr(operations, "_normalize_rows", lambda t: calls.append(t) or normalize(t))
    Operation(CYCLE3)
    assert len(calls) == 1


def test_values_the_library_builds_skip_the_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a library-built value was checked")

    monkeypatch.setattr(operations, "require_indices", refuse)
    monkeypatch.setattr(operations, "_normalize_rows", refuse)
    with pytest.raises(AssertionError):
        Permutation([1, 2])
    op = collect_operations(3)[40]
    pis = list(all_permutations(3))
    pi = pis[3]
    assert pi.inverse().compose(pi) == Permutation.identity(3)
    assert len({act(sigma, op) for sigma in pis}) == len(orbit(op))
    assert are_equivalent(op, act(pi, op)) is not None
    assert orbit_census(3).orbit_count == 24
    assert right_symmetric(2).rows == ((1, 2), (1, 2))
    assert left_symmetric(2).rows == ((1, 1), (2, 2))
