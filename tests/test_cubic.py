"""Cubic matrix arithmetic: vector-space laws, the operation product,
plenary powers, and the accompanying matrix of a cubic matrix.  The
accompanying map as an algebra homomorphism is tested in test_structure.py."""

import itertools
import random
from fractions import Fraction

import pytest

from cubal import cubic
from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations, orbit_census
from cubal.errors import FormatError
from cubal.operations import Operation, power_sequence
from cubal.linalg import matmul
from cubal.structure import accompanying_image

from conftest import CYCLE3


E = CubicMatrix.basis


@pytest.fixture
def reference(workloads):
    """The product of two cubic matrices as perfbench's ``_product`` gives
    their flat entries, with no cubal code."""
    return lambda x, y, op: workloads._product(x.entries, y.entries, op.rows, op.m)


def random_cubic(m, rng, span=9):
    return CubicMatrix(
        m, [Fraction(rng.randint(-span, span), rng.randint(1, 5)) for _ in range(m**3)]
    )


@pytest.fixture
def right_proj2():
    return Operation([[1, 2], [1, 2]])


class TestConstruction:
    def test_basis_has_a_single_unit_entry(self):
        e = E(2, 1, 2, 1)
        assert e.entry(1, 2, 1) == 1
        assert sum(1 for _, v in e.nonzero_items() if v) == 1

    def test_basis_m1(self):
        assert E(1, 1, 1, 1).entries == (1,)

    def test_index_range_checked(self):
        with pytest.raises(FormatError):
            E(2, 0, 1, 1)
        with pytest.raises(FormatError):
            E(2, 1, 3, 1)

    def test_empty_matrix_rejected(self):
        # a table needs at least one symbol, and so does a cubic matrix
        for build in (
            lambda: CubicMatrix(0, []),
            lambda: CubicMatrix.from_nested([]),
            lambda: CubicMatrix.zero(0),
        ):
            with pytest.raises(FormatError, match="m must be a positive integer, got 0"):
                build()
        with pytest.raises(FormatError, match="m must be a positive integer, got -1"):
            CubicMatrix.zero(-1)

    def test_reconstruction_from_basis_expansion(self):
        rng = random.Random(7)
        x = random_cubic(2, rng)
        total = CubicMatrix.zero(2)
        for i, j, k in itertools.product((1, 2), repeat=3):
            total = total + x.entry(i, j, k) * E(2, i, j, k)
        assert total == x

    def test_nested_round_trip(self):
        rng = random.Random(8)
        x = random_cubic(3, rng)
        assert CubicMatrix.from_nested(x.to_nested()) == x

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(FormatError):
            CubicMatrix(2, (0,) * 7)


class TestVectorSpace:
    def test_add_zero(self):
        x = E(2, 1, 1, 1)
        assert x + CubicMatrix.zero(2) == x

    def test_scale_by_zero(self):
        assert E(2, 1, 2, 2).scale(0) == CubicMatrix.zero(2)

    def test_doubling(self):
        doubled = E(2, 1, 1, 1) + E(2, 1, 1, 1)
        assert doubled.entry(1, 1, 1) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            E(2, 1, 1, 1) + E(3, 1, 1, 1)

    def test_axioms_on_random_matrices(self):
        rng = random.Random(9)
        for _ in range(20):
            x, y = random_cubic(2, rng), random_cubic(2, rng)
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert x + y == y + x
            assert lam * (x + y) == lam * x + lam * y
            assert x - x == CubicMatrix.zero(2)


class TestProduct:
    def test_matching_inner_index(self, right_proj2):
        assert E(2, 1, 1, 2).mul(E(2, 2, 1, 1), right_proj2) == E(2, 1, 1, 1)

    def test_mismatched_inner_index_kills_the_product(self, right_proj2):
        for op in (right_proj2, Operation([[1, 1], [2, 2]])):
            assert E(2, 1, 1, 2).mul(E(2, 1, 1, 1), op).is_zero()

    def test_cycle_table_product(self):
        op = Operation(CYCLE3)
        assert E(3, 1, 2, 3).mul(E(3, 3, 3, 1), op) == E(3, 1, 1, 1)

    def test_closed_form_on_all_basis_pairs(self, census2):
        # product of units: E(i,j,k) E(l,n,r) = [k = l] E(i, a(j,n), r)
        for op in census2:
            for i, j, k in itertools.product((1, 2), repeat=3):
                for l, n, r in itertools.product((1, 2), repeat=3):
                    got = E(2, i, j, k).mul(E(2, l, n, r), op)
                    if k == l:
                        assert got == E(2, i, op(j, n), r)
                    else:
                        assert got.is_zero()

    def test_closed_form_on_all_basis_pairs_m3(self, census3):
        units = {t: E(3, *t) for t in itertools.product((1, 2, 3), repeat=3)}
        zero = CubicMatrix.zero(3)
        for op in census3:
            for (i, j, k), e1 in units.items():
                for (l, n, r), e2 in units.items():
                    got = e1.mul(e2, op)
                    expected = units[(i, op(j, n), r)] if k == l else zero
                    assert got == expected

    def test_associativity_all_basis_triples_m3(self, census3):
        units = [E(3, *t) for t in itertools.product((1, 2, 3), repeat=3)]
        position = {u: n for n, u in enumerate(units)}
        zero = CubicMatrix.zero(3)
        for op in census3:
            # every product of two units is a unit or zero (None), so the 27 x 27
            # table of products decides all 27^3 triples
            table = []
            for x in units:
                row = [x.mul(y, op) for y in units]
                assert all(p == zero or p in position for p in row)
                table.append([position.get(p) for p in row])
            for x, y, z in itertools.product(range(27), repeat=3):
                xy, yz = table[x][y], table[y][z]
                left = None if xy is None else table[xy][z]
                right = None if yz is None else table[x][yz]
                assert left == right

    def test_size_mismatch_rejected(self, right_proj2):
        with pytest.raises(ValueError):
            E(2, 1, 1, 1).mul(E(3, 1, 1, 1), right_proj2)
        with pytest.raises(ValueError):
            E(3, 1, 1, 1).mul(E(3, 1, 1, 1), right_proj2)

    def test_float_entries_raise_type_error(self):
        # rejected where they enter, so no product, fiber sum or solve sees one
        with pytest.raises(TypeError, match="0.5"):
            CubicMatrix(2, [0.5, 1.0] + [0] * 6)

    def test_float_nested_entries_raise_type_error(self):
        with pytest.raises(TypeError, match="0.5"):
            CubicMatrix.from_nested([[[1, 0.5], [0, 0]], [[0, 0], [0, 0]]])

    def test_float_summand_raises_type_error(self):
        with pytest.raises(TypeError, match="0.5"):
            E(2, 1, 1, 1) + 0.5

    def test_float_scalar_raises_type_error(self):
        x = E(2, 1, 1, 1) + E(2, 2, 2, 2)
        for scale in (lambda: x.scale(0.5), lambda: 0.5 * x):
            with pytest.raises(TypeError, match="0.5"):
                scale()
        assert x.scale(Fraction(1, 2)).entry(2, 2, 2) == Fraction(1, 2)

    def test_one_right_factor_under_two_tables_then_on_the_left(self, census3, reference):
        # each table keeps its row offsets, and y serves as a right factor
        # under two tables and then on the left; no product may leak into another
        rng = random.Random(15)
        ops = [census3[17], census3[90], Operation(CYCLE3)]
        x, y, z = (random_cubic(3, rng, span=4) for _ in range(3))
        for _ in range(2):
            for op in ops:
                assert list(x.mul(y, op).entries) == reference(x, y, op)
        for op in ops:
            assert list(y.mul(z, op).entries) == reference(y, z, op)
            assert list(y.mul(y, op).entries) == reference(y, y, op)
        # a product in int form is itself a right factor later
        xy = x.mul(y, ops[0])
        assert list(z.mul(xy, ops[1]).entries) == reference(z, xy, ops[1])

    def test_bilinearity_random(self, census3):
        rng = random.Random(10)
        for _ in range(25):
            op = census3[rng.randrange(len(census3))]
            x, y, z = (random_cubic(3, rng, span=4) for _ in range(3))
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mu = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert (x + y).mul(z, op) == x.mul(z, op) + y.mul(z, op)
            assert x.mul(y + z, op) == x.mul(y, op) + x.mul(z, op)
            assert (lam * x).mul(mu * y, op) == (lam * mu) * x.mul(y, op)

    def test_associativity_dense_random(self, census2, census3):
        rng = random.Random(11)
        for census, m in ((census2, 2), (census3, 3)):
            for _ in range(100):
                op = census[rng.randrange(len(census))]
                x, y, z = (random_cubic(m, rng, span=3) for _ in range(3))
                assert x.mul(y, op).mul(z, op) == x.mul(y.mul(z, op), op)

    def test_associativity_all_basis_triples_m2(self, census2):
        units = [E(2, *t) for t in itertools.product((1, 2), repeat=3)]
        for op in census2:
            for x in units:
                for y in units:
                    xy = x.mul(y, op)
                    for z in units:
                        assert xy.mul(z, op) == x.mul(y.mul(z, op), op)

    def test_noncommutativity_witness(self, census2, census3):
        # with matching inner index and distinct outer indices the reversed
        # product vanishes while the product itself does not
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                a = E(m, 1, 1, 1)
                b = E(m, 1, 1, 2)
                assert not a.mul(b, op).is_zero()
                assert b.mul(a, op).is_zero()

    @pytest.mark.parametrize("kind", ["rational", "int", "mixed"])
    def test_matches_reference_product(self, kind, census3, reference):
        rng = random.Random(f"mul:{kind}")
        draw = {
            "rational": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            "int": lambda: rng.randint(-9, 9),
            "mixed": lambda: rng.choice((0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 7))),
        }[kind]
        ops = [Operation(CYCLE3), Operation([[1, 2], [1, 2]]), Operation([[1]])]
        ops += [census3[rng.randrange(len(census3))] for _ in range(6)]
        for op in ops:
            for _ in range(3):
                x, y = (CubicMatrix(op.m, [draw() for _ in range(op.m**3)]) for _ in range(2))
                assert list(x.mul(y, op).entries) == reference(x, y, op)
                # a basis or zero operand on either side keeps the scale of the other
                e = E(op.m, op.m, 1, 1)
                assert list(e.mul(y, op).entries) == reference(e, y, op)
                assert list(x.mul(e, op).entries) == reference(x, e, op)
                assert x.mul(CubicMatrix.zero(op.m), op).is_zero()

    def test_whole_products_of_fractions_have_int_entries(self, census3):
        # the int sums over da * db are reduced by their gcd, so a product
        # whose entries are all whole comes out over 1, with int entries
        half = CubicMatrix(1, [Fraction(1, 2)])
        assert half.mul(CubicMatrix(1, [2]), Operation([[1]])).entries == (1,)
        rng = random.Random(14)
        x = CubicMatrix(3, [rng.randint(-9, 9) for _ in range(27)])
        xy = x.scale(Fraction(1, 6)).mul(CubicMatrix(3, [6] * 27), census3[40])
        assert xy == x.mul(CubicMatrix(3, [1] * 27), census3[40])
        assert {type(v) for v in xy.entries} == {int}
        assert xy.d == 1

    def test_mul_leaves_both_operands_unchanged(self, census3):
        rng = random.Random(16)
        op = census3[40]
        given = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(27))
        x = CubicMatrix(3, given)
        y = x.mul(random_cubic(3, rng), op)  # a product: its entries are made when read
        forms = [(v.slabs, v.d) for v in (x, y)]
        for left, right in ((x, y), (y, x), (x, x), (y, y)):
            left.mul(right, op)
        assert [(v.slabs, v.d) for v in (x, y)] == forms
        assert y._entries is None
        assert list(map(type, x.entries)) == [Fraction] * 27 and x.entries == given

    def test_equal_matrices_have_one_form_and_one_hash(self, census3):
        rng = random.Random(17)
        op = census3[40]
        x, y = (CubicMatrix(3, [rng.randint(-9, 9) for _ in range(27)]) for _ in range(2))
        third = Fraction(1, 3)
        for xy, again in (
            (x.mul(y, op), x.scale(Fraction(1, 6)).mul(y.scale(6), op)),
            (x.scale(third).mul(y, op), x.mul(y.scale(third), op)),
        ):
            same = [
                xy,
                again,
                CubicMatrix(3, xy.entries),
                CubicMatrix(3, [Fraction(v) for v in xy.entries]),
            ]
            assert all(v == xy and hash(v) == hash(xy) for v in same)
            assert len(set(same)) == 1
        whole = CubicMatrix(3, [Fraction(v) for v in x.entries])
        assert whole == x and hash(whole) == hash(x) and (whole.slabs, whole.d) == (x.slabs, x.d)

    def test_unequal_sizes_or_denominators_compare_unequal(self):
        assert CubicMatrix(1, [Fraction(1, 2)]) != CubicMatrix(1, [1])
        assert CubicMatrix.zero(1) != CubicMatrix.zero(2)
        assert CubicMatrix.basis(1, 1, 1, 1) != CubicMatrix.basis(2, 1, 1, 1)
        assert CubicMatrix(2, [1] * 8) != CubicMatrix(1, [1])

    def test_m1_commutative(self):
        op = Operation([[1]])
        x = CubicMatrix(1, (Fraction(3, 7),))
        y = CubicMatrix(1, (Fraction(-2, 5),))
        assert x.mul(y, op) == y.mul(x, op)


class TestRepeatedPair:
    """From the second product of one (X, Y) pair on, ``mul`` keeps the pair's
    table-free slice products and each table only adds them into its offsets.
    Every such product must equal a fresh copy's slab-kernel product."""

    @staticmethod
    def tables(m):
        if m == 4:
            return [rep for rep, _ in orbit_census(4).representatives]
        return collect_operations(m)

    @staticmethod
    def pairs(m):
        rng = random.Random(f"pair:{m}")
        seventh = CubicMatrix(m, [Fraction(1, 7)] * m**3)
        x, y = (random_cubic(m, rng) + seventh for _ in range(2))  # no entry is whole: d > 1
        hollow = CubicMatrix(m, [0] * (m * m) + list(y.entries[m * m :]))  # slab 1 empty
        ints = CubicMatrix(m, [rng.randint(-9, 9) for _ in range(m**3)])
        return [(x, y), (hollow, x), (ints, hollow), (E(m, 1, 1, m), E(m, m, 1, 1)), (y, y)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_later_products_equal_a_fresh_copys(self, m, monkeypatch):
        slice_products, kept = cubic._slice_products, []
        monkeypatch.setattr(
            cubic, "_slice_products", lambda *args: kept.append(args) or slice_products(*args)
        )
        tables = self.tables(m)
        ops = tables if len(tables) >= 3 else tables * 3
        pairs = self.pairs(m)
        for x, y in pairs:
            for op in ops:
                got = x.mul(y, op)
                want = CubicMatrix._from_form(m, x.slabs, x.d).mul(y, op)
                assert (got.slabs, got.d) == (want.slabs, want.d)
                assert got.entries == want.entries
                assert list(map(type, got.entries)) == list(map(type, want.entries))
        # each pair's slices are made once, at its second product; fresh copies make none
        assert len(kept) == len(pairs)

    def test_a_new_partner_falls_back_to_the_slab_kernel(self, census3, monkeypatch, reference):
        slice_products, kept = cubic._slice_products, []
        monkeypatch.setattr(
            cubic, "_slice_products", lambda *args: kept.append(args) or slice_products(*args)
        )
        rng = random.Random(18)
        x, y, z = (random_cubic(3, rng) for _ in range(3))
        ops = census3[::10]
        partners = [y, y, y, z, y, y, z, z, CubicMatrix(3, y.entries)]
        made = [0, 1, 1, 1, 1, 2, 2, 3, 3]  # slices made after each product
        for right, count, op in zip(partners, made, ops):
            assert list(x.mul(right, op).entries) == reference(x, right, op)
            assert len(kept) == count


class TestAccompanyingMatrix:
    def test_single_entry(self):
        assert accompanying_image(E(2, 1, 2, 1)).coeffs == ((1, 0), (0, 0))

    def test_two_entries_same_fiber(self):
        x = E(2, 1, 1, 1) + E(2, 1, 2, 1)
        assert accompanying_image(x).coeffs == ((2, 0), (0, 0))

    def test_zero(self):
        assert accompanying_image(CubicMatrix.zero(2)).coeffs == ((0, 0), (0, 0))

    def test_multiplicative_over_products(self, census2, census3):
        rng = random.Random(13)
        for census, m in ((census2, 2), (census3, 3)):
            for op in census:
                x, y = random_cubic(m, rng, span=4), random_cubic(m, rng, span=4)
                assert accompanying_image(x.mul(y, op)).coeffs == matmul(
                    accompanying_image(x).coeffs, accompanying_image(y).coeffs
                )


class TestPlenaryPowers:
    def test_zeroth_power_is_the_matrix_itself(self):
        rng = random.Random(12)
        x = random_cubic(2, rng)
        assert x.plenary_power(0, Operation([[1, 2], [1, 2]])) == x

    def test_cycle_first_power(self):
        op = Operation(CYCLE3)
        assert E(3, 2, 2, 2).plenary_power(1, op) == E(3, 2, 3, 2)

    def test_tracks_index_squaring_orbit(self, census3):
        for op in census3[::5]:
            for i, j in itertools.product((1, 2, 3), repeat=2):
                seq = power_sequence(i, op, 6)
                for n in range(7):
                    assert E(3, j, i, j).plenary_power(n, op) == E(3, j, seq[n], j)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            E(2, 1, 1, 1).plenary_power(-1, Operation([[1, 2], [1, 2]]))
