"""Exact elimination: determinants, reduced echelon form, kernel bases."""

import itertools
import random
from fractions import Fraction

import pytest

from cubal.linalg import (
    _forward,
    det,
    first_dependent_int_column,
    kernel_basis,
    rank,
    rref,
)
from cubal.scalars import integral


def random_matrix(n, rng):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def fraction_rref(rows):
    """Reference Gauss-Jordan on Fraction entries, dividing each
    pivot row by its pivot as it goes; independent of the fraction-free code."""
    mat = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        pivot_row = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c] != 0:
                factor = mat[k][c]
                mat[k] = [a - factor * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
    return mat, pivots


def seeded_matrix(kind, n_rows, n_cols, rng):
    """A seeded matrix of one entry kind; about half are made rank-deficient
    by overwriting rows with combinations of earlier rows."""
    draw = {
        "rational": lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        "int": lambda: rng.randint(-5, 5),
        "mixed": lambda: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 4))),
        "sparse": lambda: rng.choice((0, 0, 0, 1, -1, Fraction(1, 2))),
    }[kind]
    mat = [[draw() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and rng.random() < 0.5:
        for k in range(1, n_rows, 2):
            lam, mu = draw(), draw()
            mat[k] = [lam * a + mu * b for a, b in zip(mat[k - 1], mat[rng.randrange(k)])]
    return mat


def combine_columns(mat, c, rng):
    """Make column c a seeded combination of two columns before it."""
    a, b = rng.randrange(c), rng.randrange(c)
    lam, mu = rng.randint(-2, 2), rng.randint(-2, 2)
    for row in mat:
        row[c] = lam * row[a] + mu * row[b]


def typed_rows(mat):
    return [[(x, type(x)) for x in row] for row in mat]


def naive_det(rows):
    """Cofactor expansion, independent of the elimination code."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        term = Fraction(rows[0][c]) * naive_det(minor)
        total += term if c % 2 == 0 else -term
    return total


class TestDet:
    def test_singular_diagonal(self):
        assert det([[2, 0], [0, 0]]) == 0

    def test_identity(self):
        assert det([[1, 0], [0, 1]]) == 1

    def test_two_by_two(self):
        assert det([[1, 2], [3, 4]]) == -2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det([[1, 2, 3], [4, 5, 6]])

    def test_against_cofactor_expansion(self):
        rng = random.Random(21)
        for n in (2, 3, 4):
            for _ in range(15):
                mat = random_matrix(n, rng)
                assert det(mat) == naive_det(mat)

    @pytest.mark.parametrize("kind", ["int", "rational", "mixed", "sparse"])
    def test_seeded_against_cofactor_expansion(self, kind):
        rng = random.Random(f"det:{kind}")
        for _ in range(40):
            n = rng.randint(1, 5)
            mat = seeded_matrix(kind, n, n, rng)
            got = det(mat)
            assert got == naive_det(mat)
            assert type(got) is Fraction

    @pytest.mark.parametrize("unit", [1, Fraction(1, 3)], ids=["int", "rational"])
    def test_pivots_from_odd_and_even_row_positions(self, unit):
        # a triangular matrix, each row after the first plus a multiple of an
        # earlier one, in every row order: the pivot rows come from every
        # position, odd and even, among the rows left
        rng = random.Random(f"det:positions:{unit}")
        n = 4
        for perm in itertools.permutations(range(n)):
            upper = [[0] * r + [rng.choice((1, -2, 3))] for r in range(n)]
            for row in upper:
                row += [rng.randint(-4, 4) * unit for _ in range(n - len(row))]
            for r in range(1, n):
                lam = rng.randint(-2, 2)
                upper[r] = [a + lam * b for a, b in zip(upper[r], upper[rng.randrange(r)])]
            mat = [upper[k] for k in perm]
            got = det(mat)
            assert got == naive_det(mat)
            assert type(got) is Fraction


class TestRref:
    def test_pivots_of_full_rank_matrix(self):
        reduced, pivots = rref([[2, 1], [1, 1]])
        assert pivots == [0, 1]
        assert reduced == [[1, 0], [0, 1]]

    def test_rank_deficient(self):
        _, pivots = rref([[1, 2], [2, 4]])
        assert pivots == [0]

    def test_rank(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 0, 2], [0, 1, 3]]) == 2


class TestRrefOracle:
    """The fraction-free elimination against the plain Fraction reference."""

    SHAPES = {
        "square": (5, 5),
        "wide": (3, 7),
        "tall": (7, 3),
        "single-row": (1, 6),
        "single-column": (6, 1),
    }

    @pytest.mark.parametrize("kind", ["rational", "int", "mixed", "sparse"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_reference(self, kind, shape):
        rng = random.Random(f"rref:{kind}:{shape}")
        n_rows, n_cols = self.SHAPES[shape]
        for _ in range(25):
            mat = seeded_matrix(kind, n_rows, n_cols, rng)
            reduced, pivots = rref(mat)
            expected, expected_pivots = fraction_rref(mat)
            assert pivots == expected_pivots
            assert reduced == expected
            assert rank(mat) == len(expected_pivots)
            assert all(type(x) is Fraction for row in reduced for x in row)

    @pytest.mark.parametrize("kind", ["rational", "int", "sparse"])
    def test_every_entry_matches_in_value_and_type(self, kind):
        # rref shares one normalized 0 and one normalized pivot value per call
        rng = random.Random(f"rref:types:{kind}")
        for n_rows, n_cols in self.SHAPES.values():
            for _ in range(10):
                mat = seeded_matrix(kind, n_rows, n_cols, rng)
                expected = fraction_rref(mat)[0]
                reduced = rref(mat)[0]
                assert [[(x, type(x)) for x in row] for row in reduced] == [
                    [(x, Fraction) for x in row] for row in expected
                ]

    @pytest.mark.parametrize("case", ["middle-column", "zero-first-column", "zero-rows-first"])
    @pytest.mark.parametrize("kind", ["int", "rational", "mixed", "sparse"])
    def test_back_substitution_cases(self, case, kind):
        # a middle column made dependent, so pivotless columns lie between pivots
        rng = random.Random(f"rref:back:{case}:{kind}")
        between = 0
        for n_rows, n_cols in ((4, 6), (6, 6), (7, 4)):
            for _ in range(10):
                mat = seeded_matrix(kind, n_rows, n_cols, rng)
                combine_columns(mat, rng.randrange(2, n_cols - 1), rng)
                if case == "zero-first-column":
                    for row in mat:
                        row[0] = 0
                elif case == "zero-rows-first":
                    mat[0], mat[1] = [0] * n_cols, [Fraction(0)] * n_cols
                reduced, pivots = rref(mat)
                expected, expected_pivots = fraction_rref(mat)
                assert pivots == expected_pivots
                assert typed_rows(reduced) == typed_rows(expected)
                between += any(c not in pivots for c in range(pivots[-1])) if pivots else 0
        assert between >= 10

    def test_zero_rows_and_zero_matrix(self):
        rng = random.Random("rref:zero")
        mat = seeded_matrix("rational", 4, 5, rng)
        mat[0] = [0] * 5
        mat[2] = [Fraction(0)] * 5
        assert rref(mat) == fraction_rref(mat)
        zero = [[0] * 3 for _ in range(2)]
        assert rref(zero) == ([[Fraction(0)] * 3] * 2, [])
        assert rank(zero) == 0

    def test_rank_deficient_blocks(self):
        # the shape of the zero-divisor solves: m^2 x m^2 with dependent rows
        rng = random.Random("rref:blocks")
        for n in (4, 9, 16):
            for _ in range(5):
                mat = seeded_matrix("rational", n, n, rng)
                mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]
                reduced, pivots = rref(mat)
                assert (reduced, pivots) == fraction_rref(mat)
                assert len(pivots) < n

    def test_input_is_not_modified(self):
        mat = [[Fraction(1, 2), 3], [2, Fraction(-1, 3)]]
        snapshot = [list(row) for row in mat]
        rref(mat)
        det(mat)
        assert mat == snapshot


@pytest.mark.parametrize("solve", [det, rank, rref, kernel_basis])
@pytest.mark.parametrize(
    "rows", [[[0.5, 1.0], [1.0, 3.0]], [[1, Fraction(1, 3)], [3, 0.5]]], ids=["floats", "mixed"]
)
def test_float_entries_raise_type_error(solve, rows):
    # a float has no exact int scale: det([[0.5, 1.0], [1.0, 3.0]]) is 1/2, not 0.0
    with pytest.raises(TypeError, match="0.5"):
        solve(rows)


@pytest.mark.parametrize("solve", [det, rank, rref, kernel_basis])
@pytest.mark.parametrize(
    "rows",
    [[[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]], [[Fraction(1, 2), 1], [3, 4, 5]]],
    ids=["short-last", "short-first", "fractions"],
)
def test_ragged_rows_raise_value_error(solve, rows):
    # rank([[1, 2, 3], [4, 5]]) was 2: elimination read the rows' common prefix
    with pytest.raises(ValueError, match="square" if solve is det else r"lengths \[2, 3\]"):
        solve(rows)


class TestKernel:
    def test_trivial_kernel(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_no_rows(self):
        assert kernel_basis([]) == []

    def test_one_dimensional_kernel(self):
        basis = kernel_basis([[1, 2], [2, 4]])
        assert len(basis) == 1
        (v,) = basis
        assert v[0] + 2 * v[1] == 0
        assert any(x != 0 for x in v)

    def test_vectors_annihilate_the_matrix(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.choice((3, 4))
            mat = random_matrix(n, rng)
            # force rank deficiency half the time
            if rng.random() < 0.5:
                mat[-1] = [2 * x for x in mat[0]]
            basis = kernel_basis(mat)
            assert len(basis) == n - rank(mat)
            for vec in basis:
                for row in mat:
                    assert sum(a * b for a, b in zip(row, vec)) == 0


def first_missing_pivot(rows):
    """The first column without a pivot in rref(rows), or None."""
    pivots = rref(rows)[1]
    return next((c for c in range(len(rows[0]) if rows else 0) if c not in pivots), None)


def dependent_column(rows):
    """``first_dependent_int_column`` of the columns of rows, each row scaled to
    ints as elimination scales it."""
    return first_dependent_int_column(zip(*(integral(row)[0] for row in rows)))


def echelon(rows):
    """The nonzero rows of rref(rows) and its pivot columns."""
    reduced, pivots = rref(rows)
    return reduced[: len(pivots)], pivots


class TestFirstDependentColumn:
    """The forward elimination stops where rref finds its first free column."""

    SHAPES = TestRrefOracle.SHAPES

    @staticmethod
    def matrix(kind, n_rows, n_cols, rng):
        mat = seeded_matrix(kind, n_rows, n_cols, rng)
        if n_cols > 2 and rng.random() < 0.5:
            combine_columns(mat, rng.randrange(2, n_cols), rng)
        return mat

    @pytest.mark.parametrize("kind", ["int", "rational", "mixed", "sparse"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_the_first_free_column_of_rref(self, kind, shape):
        rng = random.Random(f"dependent:{kind}:{shape}")
        n_rows, n_cols = self.SHAPES[shape]
        seen = set()
        for _ in range(40):
            mat = self.matrix(kind, n_rows, n_cols, rng)
            snapshot = [list(row) for row in mat]
            f, reduced = dependent_column(mat)
            assert f == first_missing_pivot(mat)
            assert mat == snapshot
            seen.add(f is None)
            if f is None:
                assert reduced == []
                continue
            # the f pivot rows the forward pass reduced, on columns 0..f
            assert [len(row) for row in reduced] == [f + 1] * f
            for i, row in enumerate(reduced):
                assert not any(row[:i]) and row[i] != 0
            assert echelon(reduced) == echelon([row[: f + 1] for row in mat])
        if n_rows >= n_cols > 1 and kind != "sparse":
            assert seen == {True, False}

    def test_zero_matrix_identity_and_short_rows(self):
        assert dependent_column([[0] * 3 for _ in range(2)]) == (0, [])
        assert dependent_column([[Fraction(0)], [0]]) == (0, [])
        identity = [[int(r == c) for c in range(4)] for r in range(4)]
        assert dependent_column(identity) == (None, [])
        # the rows run out before the columns do
        assert dependent_column([[1, 0, 5], [0, 1, 7]]) == (2, [[1, 0, 5], [0, 1, 7]])
        # pivot rows come in pivot order, reduced fraction-free and scaled to ints
        assert dependent_column([[0, 1, 1], [2, 1, 0], [4, 2, 0]]) == (
            2, [[2, 1, 0], [0, 2, 2]]
        )
        assert dependent_column([[Fraction(1, 2), 1, 0], [1, 0, 1]]) == (
            2, [[1, 2, 0], [0, -2, 1]]
        )
        assert dependent_column([[0, 1], [1, 1], [2, 2]]) == (None, [])

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_no_column_is_pulled_after_the_first_dependent_one(self, shape):
        rng = random.Random(f"pulled:{shape}")
        n_rows, n_cols = self.SHAPES[shape]
        for _ in range(40):
            mat = self.matrix("int", n_rows, n_cols, rng)
            pulled = []

            def columns():
                for col in zip(*mat):
                    pulled.append(col)
                    yield col

            for c, step in enumerate(_forward(columns())):
                assert len(pulled) == c + 1
                if step is None:
                    break
            f = first_missing_pivot(mat)
            assert len(pulled) == (n_cols if f is None else f + 1)
            pulled.clear()
            assert first_dependent_int_column(columns()) == dependent_column(mat)
            assert len(pulled) == (n_cols if f is None else f + 1)
