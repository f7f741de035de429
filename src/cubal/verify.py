"""Batch verification of the structural results over a full census.

Each check mirrors one of the library's headline guarantees and reports a
boolean per operation, plus small witnesses where they aid diagnosis.  The
random trials use a fixed seed so reports are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .cubic import CubicMatrix
from .enumeration import DEFAULT_MAX_M, collect_operations
from .linalg import rank
from .operations import (
    Operation,
    _classify_squaring,
    act,
    all_permutations,
    classify_power_sequence,
    classify_symmetry,
    enumerate_invariant_subsets,
    is_invariant,
    power_sequence,
)
from .scalars import format_scalar
from .structure import (
    AccompanyingElement,
    SpannedSubspace,
    _basis_product_triple,
    accompanying_image,
    character_search,
    image_ideal_span,
    in_kernel_ideal,
    is_ideal,
    is_subalgebra,
    left_zero_divisor_witness,
    verify_isomorphism,
)

RNG_SEED = 20250809
ACCOMPANYING_TRIALS = 5
ZERO_DIVISOR_TRIALS = 4


def random_cubic(m: int, rng: random.Random, *, span: int = 9) -> CubicMatrix:
    """A dense cubic matrix with small random rational entries."""
    return CubicMatrix(
        m,
        [
            Fraction(rng.randint(-span, span), rng.randint(1, 4))
            for _ in range(m * m * m)
        ],
    )


def check_isomorphisms(op: Operation) -> bool:
    """Every orbit member is reached by a permutation that is an algebra isomorphism.

    One pass over the symmetric group: each distinct relabeling act(pi, op)
    is checked with the first pi that produces it.
    """
    seen = set()
    for pi in all_permutations(op.m):
        other = act(pi, op)
        if other not in seen:
            seen.add(other)
            if not verify_isomorphism(op, other, pi):
                return False
    return True


def check_characters(op: Operation) -> bool:
    """The character search returns exactly the expected set (empty for m >= 2)."""
    chars = character_search(op)
    return len(chars) == (1 if op.m == 1 else 0)


def check_accompanying(op: Operation) -> bool:
    """The fiber-sum map is a surjective homomorphism with the stated kernel.

    Basis images, surjectivity and the seeded trials' kernel-ideal facts are
    checked once per m by ``_accompanying_trials``; each table runs only the
    law on basis pairs and the two dense products of each trial.
    """
    m = op.m
    pairs = _accompanying_trials(m)
    # phi(E(i, j, k)) = u(i, k): on basis pairs the law is one on (i, r) pairs
    triples = list(itertools.product(range(1, m + 1), repeat=3))
    for s in triples:
        for t in triples:
            prod = _basis_product_triple(op, s, t)
            outer = None if prod is None else (prod[0], prod[2])
            if outer != ((s[0], t[2]) if s[2] == t[0] else None):
                return False
    return pairs is not None and all(
        in_kernel_ideal(balanced.mul(y, op)) and in_kernel_ideal(y.mul(balanced, op))
        for balanced, y in pairs
    )


@functools.lru_cache(maxsize=None)
def _accompanying_trials(m: int):
    """The table-free facts of theorem_3: the (balanced, y) trial pairs, or None."""
    triples = list(itertools.product(range(1, m + 1), repeat=3))
    images = [accompanying_image(CubicMatrix.basis(m, *s)) for s in triples]
    if images != [AccompanyingElement.unit(m, s[0], s[2]) for s in triples]:
        return None
    # surjectivity: basis images must span all m^2 coefficient dimensions
    coeff_rows = [[u.coeffs[i][j] for u in images] for i in range(m) for j in range(m)]
    if rank(coeff_rows) != m * m:
        return None
    rng = random.Random(RNG_SEED)
    pairs = []
    # positive scaling keeps kernel-ideal membership, so trials run on int multiples
    for _ in range(ACCOMPANYING_TRIALS):
        x = random_cubic(m, rng).integer_multiple()
        fiber_sums_vanish = all(
            sum(x.entry(i, n, j) for n in range(1, m + 1)) == 0
            for i in range(1, m + 1)
            for j in range(1, m + 1)
        )
        if in_kernel_ideal(x) != fiber_sums_vanish:
            return None
        balanced = x - _fiber_balance(x)
        y = random_cubic(m, rng).integer_multiple()
        if not in_kernel_ideal(balanced):
            return None
        pairs.append((balanced, y))
    return tuple(pairs)


def _fiber_balance(x: CubicMatrix) -> CubicMatrix:
    """A matrix with the same fiber sums as x concentrated at middle index 1."""
    m = x.m
    entries = [0] * (m * m * m)
    for i, row in enumerate(accompanying_image(x).coeffs):
        entries[i * m * m : i * m * m + m] = row
    return CubicMatrix(m, entries)


def check_subalgebras(op: Operation) -> bool:
    """Invariant subsets span subalgebras; the image span is a two-sided ideal;
    the block/inclusion/disjointness identities hold on the spanning triples."""
    m = op.m
    blocks = list(itertools.product(range(1, m + 1), repeat=2))
    first_block = {}
    for J in filter(None, enumerate_invariant_subsets(op)):
        if not is_invariant(J, op):
            return False
        spans = [SpannedSubspace(m, frozenset((i, j, k) for j in J)) for i, k in blocks]
        if not all(is_subalgebra(span, op) for span in spans):
            return False
        if any(s1.triples & s2.triples for s1, s2 in itertools.combinations(spans, 2)):
            return False
        first_block[J] = spans[0].triples
    for (J1, s1), (J2, s2) in itertools.combinations(first_block.items(), 2):
        if J1 <= J2 and not s1 <= s2:
            return False
        if J2 <= J1 and not s2 <= s1:
            return False
        if not (J1 & J2) and (s1 & s2):
            return False
    return is_ideal(image_ideal_span(op), op)


def check_commutativity(op: Operation) -> tuple[bool, dict]:
    """The algebra is commutative exactly when m = 1; report the pair tried.

    At m = 1 the algebra is the field itself: E·E = E, and two dense
    elements seeded from the table commute.  For m >= 2 the basis pair
    E(1,1,1), E(1,1,2) does not commute.
    """
    m = op.m
    if m == 1:
        e = CubicMatrix.basis(1, 1, 1, 1)
        rng = random.Random(f"{RNG_SEED}:{op.flat()}")
        x, y = random_cubic(1, rng), random_cubic(1, rng)
        ok = e.mul(e, op) == e and x.mul(y, op) == y.mul(x, op)
        return ok, {"pair": [[format_scalar(v) for v in z.entries] for z in (x, y)]}
    left = CubicMatrix.basis(m, 1, 1, 1)
    right = CubicMatrix.basis(m, 1, 1, 2)
    ok = left.mul(right, op) != right.mul(left, op)
    witness = {"pair": [[1, 1, 1], [1, 1, 2]]}
    return ok, witness


def check_zero_divisors(op: Operation) -> bool:
    """Witnesses from the kernel solver are exact; for the two projection
    operations the determinant criterion and the always-divisor rule hold."""
    m = op.m
    rng = random.Random(f"{RNG_SEED}:{op.flat()}")
    kind = classify_symmetry(op)
    for _ in range(ZERO_DIVISOR_TRIALS):
        a_mat = random_cubic(m, rng)
        if rng.random() < 0.5 and m >= 2:
            a_mat = _make_singular(a_mat)
        a_mat = a_mat.integer_multiple()  # positive scaling keeps zero products, det == 0
        witness = left_zero_divisor_witness(a_mat, op)
        if witness is not None:
            if witness.is_zero() or not a_mat.mul(witness, op).is_zero():
                return False
        if kind in ("right", "both"):
            exists = witness is not None
            if exists != (accompanying_image(a_mat).det() == 0):
                return False
        if kind == "left" and m >= 2 and witness is None:
            return False
    return True


def _make_singular(x: CubicMatrix) -> CubicMatrix:
    """Copy the first outer slice over the last, forcing equal accompanying rows."""
    m = x.m
    entries = list(x.entries)
    mm = m * m
    entries[(m - 1) * mm : m * mm] = entries[0:mm]
    return CubicMatrix(m, entries)


def check_plenary_powers(op: Operation) -> bool:
    """Squaring a basis matrix E(j, i, j) tracks the index squaring orbit of i.

    Only the m^2 squares E(j, i, j)^2 are dense products, checked against the
    triple rule; each walk step squares one of them, so walks run on triples.
    """
    m = op.m
    steps = 2 * m
    square = lambda s: _basis_product_triple(op, s, s)
    for j in range(1, m + 1):
        for i in range(1, m + 1):
            e = CubicMatrix.basis(m, j, i, j)
            if e.mul(e, op) != CubicMatrix.basis(m, *square((j, i, j))):
                return False
            seq = power_sequence(i, op, steps)
            t = (j, i, j)
            for n in range(steps + 1):
                if t != (j, seq[n], j):
                    return False
                t = square(t)
            matrix_class = _classify_squaring((j, i, j), square)
            index_class = classify_power_sequence(i, op)
            if (matrix_class.tag, matrix_class.entry, matrix_class.period) != (
                index_class.tag, index_class.entry, index_class.period
            ):
                return False
    return True


def verify_operation(op: Operation) -> dict:
    """Run the whole check battery for one operation; JSON-ready result."""
    commutative_ok, witness = check_commutativity(op)
    return {
        "operation": [list(r) for r in op.rows],
        "theorem_1": check_isomorphisms(op),
        "theorem_2": check_characters(op),
        "theorem_3": check_accompanying(op),
        "theorem_4": check_subalgebras(op),
        "commutativity": commutative_ok,
        "zero_divisors": check_zero_divisors(op),
        "plenary_powers": check_plenary_powers(op),
        "witnesses": witness,
    }


def verify_census(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> dict:
    """Verify every operation of the census for m; the report is deterministic."""
    results = [verify_operation(op) for op in collect_operations(m, jobs=jobs, max_m=max_m)]
    checks = [k for k in results[0] if k not in ("operation", "witnesses")] if results else []
    all_pass = all(res[k] for res in results for k in checks)
    return {"m": m, "total": len(results), "results": results, "all_pass": all_pass}
