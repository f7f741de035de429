"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is an exact
identity or an exact census count; the only tolerances are wall-clock budgets,
asserted where a criterion states one.
"""

import itertools
import random
import time
from fractions import Fraction

from cubal.cubic import CubicMatrix
from cubal.enumeration import count_operations, enumerate_operations
from cubal.linalg import rank
from cubal.operations import (
    Operation,
    are_equivalent,
    classify_power_sequence,
    classify_symmetry,
    enumerate_invariant_subsets,
    image,
    invariance_violation,
    is_symmetric,
    left_symmetric,
    orbit,
    power_sequence,
    right_symmetric,
)
from cubal.structure import (
    accompanying_image,
    character_search,
    in_kernel_ideal,
    is_character,
    left_zero_divisor_witness,
    verify_isomorphism,
)
from cubal.verify import check_subalgebras

from conftest import (
    ALL_INVARIANT3,
    CYCLE3,
    M2_TABLES,
    ORBIT6_TABLES,
    brute_associative,
    mod_p_characters,
)

E = CubicMatrix.basis


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed {suffix}"


def random_cubic(m, rng, span=6):
    return CubicMatrix(
        m, [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(m**3)]
    )


def test_census_counts():
    expected = {1: 1, 2: 8, 3: 113, 4: 3492}
    started = time.perf_counter()
    got = {m: count_operations(m) for m in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - started
    report(
        "census counts m<=4",
        got == expected and elapsed < 10.0,
        f"{got}, {elapsed:.2f}s",
    )


def test_census_count_stretch_m5():
    started = time.perf_counter()
    got = count_operations(5)
    elapsed = time.perf_counter() - started
    report("census count m=5 (stretch)", got == 183732 and elapsed < 300.0,
           f"{got}, {elapsed:.1f}s")


def test_m2_census_and_orbits(census2, orbits2):
    listing_ok = [list(map(list, op.rows)) for op in census2] == M2_TABLES
    ops = [Operation(t) for t in M2_TABLES]
    pairs_ok = (
        are_equivalent(ops[0], ops[7]) is not None
        and are_equivalent(ops[1], ops[5]) is not None
        and are_equivalent(ops[4], ops[6]) is not None
    )
    sizes = sorted(size for _, size in orbits2.representatives)
    orbit_ok = orbits2.orbit_count == 5 and sizes == [1, 1, 2, 2, 2]
    singletons = {rep for rep, size in orbits2.representatives if size == 1}
    singleton_ok = singletons == {ops[2], ops[3]}
    symmetric = [op for op in census2 if is_symmetric(op)]
    symmetric_ok = sorted(symmetric) == sorted([left_symmetric(2), right_symmetric(2)]) and {
        classify_symmetry(op) for op in symmetric
    } == {"left", "right"}
    report(
        "m=2 census, orbits, symmetric operations",
        listing_ok and pairs_ok and orbit_ok and singleton_ok and symmetric_ok,
    )


def test_m3_orbit_and_symmetry(census3):
    members = [Operation(t) for t in ORBIT6_TABLES]
    orb = orbit(members[0])
    orbit_ok = len(orb) == 6 and orb == frozenset(members)
    in_census_ok = all(op in set(census3) for op in members)
    sym_ok = is_symmetric(Operation([[1, 2, 3], [1, 2, 3], [1, 2, 3]])) and is_symmetric(
        Operation([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
    )
    report("m=3 six-element orbit and symmetric tables", orbit_ok and in_census_ok and sym_ok)


def test_isomorphism_suite(census2):
    started = time.perf_counter()
    ok = True
    for a in census2:
        for b in census2:
            pi = are_equivalent(a, b)
            if pi is not None:
                ok = ok and verify_isomorphism(a, b, pi)
    members = [Operation(t) for t in ORBIT6_TABLES]
    for a in members:
        for b in members:
            pi = are_equivalent(a, b)
            ok = ok and pi is not None and verify_isomorphism(a, b, pi)
    elapsed = time.perf_counter() - started
    report("isomorphisms along equivalences", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_character_suite(census2, census3):
    empty_ok = all(character_search(op) == [] for op in census2 + census3)
    m1 = character_search(Operation([[1]]))
    m1_ok = len(m1) == 1 and is_character(m1[0], Operation([[1]]))
    # all p^8 forms mod p, with the m = 1 unit form as a positive control
    oracle_ok = all(
        mod_p_characters(Operation([[1]]), p) == [(1,)]
        and all(mod_p_characters(op, p) == [] for op in census2)
        for p in (2, 3)
    )
    report(
        "no characters for m>=2 (search + finite-field oracle)",
        empty_ok and m1_ok and oracle_ok,
    )


def test_accompanying_homomorphism_suite(census2, census3):
    ok = True
    for census, m in ((census2, 2), (census3, 3)):
        units = [E(m, *t) for t in itertools.product(range(1, m + 1), repeat=3)]
        images = [accompanying_image(u) for u in units]
        rows = [
            [u.coeffs[i][j] for u in images] for i in range(m) for j in range(m)
        ]
        ok = ok and rank(rows) == m * m
        for op in census:
            for s, x in enumerate(units):
                for t, y in enumerate(units):
                    if accompanying_image(x.mul(y, op)) != images[s].mul(images[t]):
                        ok = False
    rng = random.Random(101)
    for m in (2, 3):
        for _ in range(50):
            x = random_cubic(m, rng)
            sums_vanish = all(
                sum(x.entry(i, n, j) for n in range(1, m + 1)) == 0
                for i in range(1, m + 1)
                for j in range(1, m + 1)
            )
            if in_kernel_ideal(x) != sums_vanish:
                ok = False
    report("accompanying homomorphism, surjectivity, kernel", ok)


def test_zero_divisor_suite():
    started = time.perf_counter()
    rng = random.Random(102)
    ok = True
    for m in (2, 3):
        right = right_symmetric(m)
        left = left_symmetric(m)
        for trial in range(100):
            a = random_cubic(m, rng, span=5)
            if trial % 2 == 0:
                entries = list(a.entries)
                entries[(m - 1) * m * m :] = entries[: m * m]  # equal slices
                a = CubicMatrix(m, entries)
            witness = left_zero_divisor_witness(a, right)
            singular = accompanying_image(a).det() == 0
            if (witness is not None) != singular:
                ok = False
            if witness is not None and (
                witness.is_zero() or not a.mul(witness, right).is_zero()
            ):
                ok = False
            lw = left_zero_divisor_witness(a, left)
            if lw is None or lw.is_zero() or not a.mul(lw, left).is_zero():
                ok = False
    elapsed = time.perf_counter() - started
    report(
        "zero divisors: kernel solver vs determinant criterion",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def middles(x):
    m = x.m
    return {flat // m % m + 1 for flat, _ in x.nonzero_items()}


def test_subalgebra_and_ideal_suite(census2, census3):
    # through products: each invariant J spans a subalgebra in every block
    # (i, k), zero off the diagonal, and the image spans a two-sided ideal
    ok = True
    for census, m in ((census2, 2), (census3, 3)):
        triples = list(itertools.product(range(1, m + 1), repeat=3))
        everything = CubicMatrix(m, [1] * m**3)
        for op in census:
            for J in filter(None, enumerate_invariant_subsets(op)):
                for i, k in itertools.product(range(1, m + 1), repeat=2):
                    x = CubicMatrix(m, [int(t[0] == i and t[1] in J and t[2] == k) for t in triples])
                    square = x.mul(x, op)
                    if not middles(square) <= J or (i != k and not square.is_zero()):
                        ok = False
            ideal = CubicMatrix(m, [int(t[1] in image(op)) for t in triples])
            if not middles(everything.mul(ideal, op)) | middles(ideal.mul(everything, op)) <= image(op):
                ok = False
            if not check_subalgebras(op):
                ok = False
    seven = sum(1 for J in enumerate_invariant_subsets(Operation(ALL_INVARIANT3)) if J) == 7
    cyc = Operation(CYCLE3)
    cls = classify_power_sequence(2, cyc)
    cycle_set_ok = cls.cycle == frozenset({2, 3})
    witness_ok = invariance_violation(cls.cycle, cyc) == (2, 3, 1)
    report(
        "subalgebras and ideals from invariant subsets",
        ok and seven and cycle_set_ok and witness_ok,
    )


def test_plenary_power_suite(census2, census3):
    ok = True
    for census, m in ((census2, 2), (census3, 3)):
        for op in census:
            for i in range(1, m + 1):
                seq = power_sequence(i, op, 2 * m)
                for j in range(1, m + 1):
                    mat = E(m, j, i, j)
                    for n in range(2 * m + 1):
                        if mat != E(m, j, seq[n], j):
                            ok = False
                        mat = mat.mul(mat, op)
                cls = classify_power_sequence(i, op)
                if cls.tag == "periodic" and seq[cls.period] != i:
                    ok = False
                if cls.tag == "convergent" and seq[cls.entry] != cls.limit:
                    ok = False
    report("plenary powers track the index squaring orbit", ok)


def test_enumerator_oracle_equivalence():
    ok = True
    for m in (1, 2, 3):
        naive = []
        for combo in itertools.product(range(1, m + 1), repeat=m * m):
            rows = [list(combo[r * m : (r + 1) * m]) for r in range(m)]
            if brute_associative(rows):
                naive.append(tuple(combo))
        got = [op.flat() for op in enumerate_operations(m)]
        if got != naive:
            ok = False
    report("backtracking enumerator matches naive full scan (m<=3)", ok)
