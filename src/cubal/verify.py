"""Batch verification of the structural results over a full census.

Each check mirrors one of the library's headline guarantees and reports a
boolean per operation, plus small witnesses where they aid diagnosis.  The
random trials use a fixed seed so reports are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import gcd, lcm

from .cubic import CubicMatrix, _slabs_of
from .enumeration import DEFAULT_MAX_M, collect_operations
from .linalg import det, matmul
from .operations import (
    Operation,
    _classify_squaring,
    _escape,
    act,
    all_permutations,
    classify_power_sequence,
    classify_symmetry,
    power_sequence,
)
from .scalars import format_scalar
from .structure import (
    _basis_product_triple,
    accompanying_image,
    character_search,
    in_kernel_ideal,
    left_zero_divisor_witness,
    verify_isomorphism,
)

RNG_SEED = 20250809
ACCOMPANYING_TRIALS = 5
ZERO_DIVISOR_TRIALS = 4


def random_cubic(m: int, rng: random.Random) -> CubicMatrix:
    """A dense cubic matrix with small random rational entries p / q, made in
    its int form: p d / q over d, the lcm of the reduced q / gcd(p, q).

    p and q are what ``rng.randint(-9, 9)`` and ``rng.randint(1, 4)`` draw, in
    turn, by randint's own rule: ``getrandbits(k)`` for k the bit length of the
    range's size (19 and 4), drawn again until it is below that size.
    """
    bits, draws = rng.getrandbits, []
    for _ in range(m * m * m):
        while (p := bits(5)) >= 19:
            pass
        while (q := bits(3)) >= 4:
            pass
        draws.append((p - 9, q + 1))
    d = lcm(*(q // gcd(p, q) for p, q in draws))
    return CubicMatrix._from_form(m, _slabs_of(m, [p * d // q for p, q in draws]), d)


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
    """The character search returns exactly the expected forms: at m = 1 the
    one with coefficient 1 on E(1, 1, 1), and none for m >= 2."""
    return character_search(op) == ([CubicMatrix.basis(1, 1, 1, 1)] if op.m == 1 else [])


def check_accompanying(op: Operation) -> bool:
    """The fiber-sum map is a surjective homomorphism with the stated kernel.

    The basis images (E(i, j, k) goes to the unit u(i, k), so every unit is
    reached and the map is onto) and the seeded trials' kernel-ideal facts are
    checked once per m by ``_accompanying_trials``; each table runs the law
    phi(xy) = phi(x) phi(y) on one seeded dense pair and the two dense
    products of each kernel trial.
    """
    trials = _accompanying_trials(op.m)
    if trials is None:
        return False
    pairs, (x, y, phi_xy) = trials
    return accompanying_image(x.mul(y, op)).coeffs == phi_xy and all(
        in_kernel_ideal(balanced.mul(z, op)) and in_kernel_ideal(z.mul(balanced, op))
        for balanced, z in pairs
    )


@functools.lru_cache(maxsize=None)
def _accompanying_trials(m: int):
    """The table-free facts of theorem_3: the (balanced, y) trial pairs and a
    dense pair (x, y) with the rows of phi(x) phi(y), or None."""
    S = range(1, m + 1)
    for i, n, k in itertools.product(S, repeat=3):  # E(i, n, k) goes to the unit u(i, k)
        unit = tuple(tuple(int((r, c) == (i, k)) for c in S) for r in S)
        if accompanying_image(CubicMatrix.basis(m, i, n, k)).coeffs != unit:
            return None
    rng = random.Random(RNG_SEED)
    pairs = []
    # positive scaling keeps kernel-ideal membership, so trials run on int multiples
    for _ in range(ACCOMPANYING_TRIALS):
        x = random_cubic(m, rng).integer_multiple()
        fiber_sums_vanish = all(sum(x.entry(i, n, j) for n in S) == 0 for i in S for j in S)
        if in_kernel_ideal(x) != fiber_sums_vanish:
            return None
        balanced = x - _fiber_balance(x)
        y = random_cubic(m, rng).integer_multiple()
        if not in_kernel_ideal(balanced):
            return None
        pairs.append((balanced, y))
    x, y = random_cubic(m, rng), random_cubic(m, rng)
    phi_xy = matmul(accompanying_image(x).coeffs, accompanying_image(y).coeffs)
    return tuple(pairs), (x, y, phi_xy)


def _fiber_balance(x: CubicMatrix) -> CubicMatrix:
    """A matrix with the same fiber sums as x concentrated at middle index 1."""
    m = x.m
    entries = [0] * (m * m * m)
    for i, row in enumerate(accompanying_image(x).coeffs):
        entries[i * m * m : i * m * m + m] = row
    return CubicMatrix(m, entries)


def check_subalgebras(op: Operation) -> bool:
    """Theorem 4 through the product: for every nonempty J, the verdicts of
    ``subset_closures`` are those the table rows give, and an off-diagonal
    element squares to 0.  J = image(a) is one of the subsets."""
    rows, S = op.rows, range(1, op.m + 1)
    y = _subset_probes(op.m)[1]
    return (y is None or y.mul(y, op).is_zero()) and all(
        closures == tuple(_escape(rows, *sides, J) is None for sides in ((J, J), (S, J), (J, S)))
        for J, closures in subset_closures(op)
    )


def subset_closures(op: Operation):
    """Yield, per nonempty J of 1..m by size then members, J and whether the
    middle indices of x_J x_J, u x_J and x_J u lie in J, for x_J the sum of
    E(1, j, 1) over j in J and u = x_{1..m}: whether the span of
    {E(i, j, k): j in J} is a subalgebra, a left ideal and a right ideal.
    Every coefficient is 1, so no term cancels and those middle indices are
    exactly a(J, J), a(S, J) and a(J, S)."""
    m = op.m
    for J, pairs in _subset_probes(m)[0]:
        yield J, tuple(
            {jr // m + 1 for slab in x.mul(y, op).slabs for jr, _ in slab}.issubset(J)
            for x, y in pairs
        )


@functools.lru_cache(maxsize=None)
def _subset_probes(m: int):
    """The factor pairs of theorem_4, built once per m: per nonempty J, J with
    (x_J, x_J), (u, x_J) and (x_J, u), one u = x_{1..m} for all; and the sum
    of E(1, j, 2) over j, or None when m = 1.  Each factor meets a new right
    factor on every product, so the probes take ``mul``'s slab path."""
    def ones(J, k=1):  # the sum of E(1, j, k) over j in J
        slab = tuple(((j - 1) * m + k - 1, 1) for j in J)
        return CubicMatrix._from_form(m, (slab,) + ((),) * (m - 1), 1)

    S, probes = tuple(range(1, m + 1)), []
    u = ones(S)
    for J in (J for size in S for J in itertools.combinations(S, size)):
        x = ones(J)
        probes.append((J, ((x, x), (u, x), (x, u))))
    return tuple(probes), ones(S, 2) if m >= 2 else None


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


def zero_divisor_trials(op: Operation):
    """Yield the elements ``check_zero_divisors`` solves for op, in its order:
    dense draws seeded from the table, about half of them (for m >= 2) made
    singular by copying the first outer slice over the last, which makes two
    accompanying rows equal.  Each is the int multiple of its draw; positive
    scaling keeps zero products and det == 0.  A copy is made on the draw's
    slabs: its entries v / d have lcm denominator d / gcd(d, v, ...)."""
    m = op.m
    rng = random.Random(f"{RNG_SEED}:{op.flat()}")
    for _ in range(ZERO_DIVISOR_TRIALS):
        x = random_cubic(m, rng)
        if rng.random() < 0.5 and m >= 2:
            slabs = x.slabs[:-1] + x.slabs[:1]
            g = gcd(x.d, *(v for slab in slabs for _, v in slab))
            x = CubicMatrix._from_form(
                m, tuple(tuple((f, v // g) for f, v in s) for s in slabs), 1
            )
        yield x.integer_multiple()


def check_zero_divisors(op: Operation) -> bool:
    """Witnesses from the kernel solver are exact; for the two projection
    operations the determinant criterion and the always-divisor rule hold."""
    m = op.m
    kind = classify_symmetry(op)
    for a_mat in zero_divisor_trials(op):
        witness = left_zero_divisor_witness(a_mat, op)
        if witness is not None:
            if witness.is_zero() or not a_mat.mul(witness, op).is_zero():
                return False
        if kind in ("right", "both"):
            exists = witness is not None
            if exists != (det(accompanying_image(a_mat).coeffs) == 0):
                return False
        if kind == "left" and m >= 2 and witness is None:
            return False
    return True


def check_plenary_powers(op: Operation) -> bool:
    """Squaring a basis matrix E(j, i, j) tracks the index squaring orbit of i.

    Only the m^2 squares E(j, i, j)^2 are dense products, checked against the
    triple rule.  That rule squares E(j, i, j) to E(j, a(i, i), j), whatever
    j is, so each i's walk runs once, on triples (1, ., 1), against its power
    sequence and its class.
    """
    m = op.m
    steps = 2 * m
    square = lambda s: _basis_product_triple(op, s, s)
    for j, i in itertools.product(range(1, m + 1), repeat=2):
        e = CubicMatrix.basis(m, j, i, j)
        if e.mul(e, op) != CubicMatrix.basis(m, *square((j, i, j))):
            return False
    for i in range(1, m + 1):
        t, seq = (1, i, 1), power_sequence(i, op, steps)
        for n in range(steps + 1):
            if t != (1, seq[n], 1):
                return False
            t = square(t)
        matrix_class = _classify_squaring((1, i, 1), square)
        index_class = classify_power_sequence(i, op)
        if (matrix_class.tag, matrix_class.entry, matrix_class.period) != (
            index_class.tag, index_class.entry, index_class.period
        ):
            return False
    return True


def battery():
    """The check battery in report order, as (report key, check) pairs.  A check
    returns a bool, or (bool, witnesses).  Built on each call, so a check rebound
    on this module, by a test or a tracer, is the one that runs."""
    return (
        ("theorem_1", check_isomorphisms),
        ("theorem_2", check_characters),
        ("theorem_3", check_accompanying),
        ("theorem_4", check_subalgebras),
        ("commutativity", check_commutativity),
        ("zero_divisors", check_zero_divisors),
        ("plenary_powers", check_plenary_powers),
    )


def failed_checks(entry: dict) -> list[str]:
    """The battery keys of a ``verify_operation`` entry whose value is not True."""
    return [key for key, _ in battery() if entry[key] is not True]


def verify_operation(op: Operation) -> dict:
    """Run the whole check battery for one operation; JSON-ready result."""
    entry = {"operation": [list(r) for r in op.rows]}  # lists: callers compare in process
    for key, check in battery():
        if isinstance(verdict := check(op), tuple):
            verdict, entry["witnesses"] = verdict
        entry[key] = verdict
    return entry


def verify_census(m: int, *, jobs: int = 1, max_m: int = DEFAULT_MAX_M) -> dict:
    """Verify every operation of the census for m; the report is deterministic."""
    ops = collect_operations(m, jobs=jobs, max_m=max_m)
    ops.reverse()  # each table, with its row plan, is released once its battery has run
    results = [verify_operation(ops.pop()) for _ in range(len(ops))]
    all_pass = not any(map(failed_checks, results))
    return {"m": m, "total": len(results), "results": results, "all_pass": all_pass}
