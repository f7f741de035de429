"""Batch verification of the structural results over a full census.

Each check mirrors one of the library's headline guarantees and reports a
boolean per operation, plus small witnesses where they aid diagnosis.
theorem_1 tries every relabeling of a table, automorphisms included.  The
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
_REDUCED_Q = [[q // gcd(p, q) for q in range(1, 5)] for p in range(-9, 10)]


def random_cubic(m: int, rng: random.Random) -> CubicMatrix:
    """A dense cubic matrix with small random rational entries p / q, made in
    its int form: p d / q over d, the lcm of the reduced q / gcd(p, q), read
    from the table ``_REDUCED_Q[p + 9][q - 1]`` by the raw draws p + 9, q - 1.

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
        draws.append((p, q))
    d = lcm(*{_REDUCED_Q[p][q] for p, q in draws})
    return CubicMatrix._from_form(m, _slabs_of(m, [(p - 9) * d // (q + 1) for p, q in draws]), d)


def check_isomorphisms(op: Operation) -> bool:
    """Theorem 1: for every pi in S_m, automorphisms included, relabeling the
    basis by pi is an algebra isomorphism onto the algebra of act(pi, op)."""
    return all(verify_isomorphism(op, act(pi, op), pi) for pi in all_permutations(op.m))


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
    # positive scaling keeps kernel-ideal membership, and phi is bilinear, so trials run on
    # int multiples, the dense pair too
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
    x, y = random_cubic(m, rng).integer_multiple(), random_cubic(m, rng).integer_multiple()
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
    """Theorem 4 through the product: for every nonempty J, the verdicts that
    ``subset_closures`` reads off one product are those ``_escape`` gives on
    the table rows, and the off-diagonal sum of E(1, j, 2) squares to 0.
    J = image(a) is one of the subsets."""
    rows, S = op.rows, range(1, op.m + 1)
    y = _closure_probes(op.m)[2]
    return (y is None or y.mul(y, op).is_zero()) and all(
        closures == tuple(_escape(rows, *sides, J) is None for sides in ((J, J), (S, J), (J, S)))
        for J, closures in subset_closures(op)
    )


def subset_closures(op: Operation):
    """Yield, per nonempty J of S = 1..m by size then members, J and whether
    the middle indices of the product over J x J, S x J and J x S lie in J:
    whether the span of {E(i, j, k): j in J} is a subalgebra, a left ideal
    and a right ideal.  One product P = X U, for X the sum of E(s, s, 1) and
    U the sum of E(1, t, t) over S, is the sum of E(s, a(s, t), t): one term
    per outer cell (s, ., t), so none cancels and each cell holds a(s, t)."""
    m = op.m
    x, u, _ = _closure_probes(m)
    cells = [[0] * m for _ in range(m)]  # the middle indices at (s, ., t), as bits
    for s, slab in enumerate(x.mul(u, op).slabs):
        for jt, _ in slab:
            cells[s][jt % m] |= 1 << jt // m
    # unions(bits)[T], for a set T of positions in bits given as bits, is the union of the bits at T
    unions = lambda bits: functools.reduce(lambda out, b: out + [c | b for c in out], bits, [0])
    rows = [unions(row) for row in cells]  # [s][T]: the middle indices over {s} x T
    over_left = unions(row[-1] for row in rows)  # [T]: over T x S
    over_right = [functools.reduce(int.__or__, col) for col in zip(*rows)]  # [T]: over S x T
    S = tuple(range(1, m + 1))
    for J in (J for size in S for J in itertools.combinations(S, size)):
        inside = sum(1 << j - 1 for j in J)
        square = functools.reduce(int.__or__, (rows[j - 1][inside] for j in J))
        yield J, tuple(not bits & ~inside for bits in (square, over_right[inside], over_left[inside]))


@functools.lru_cache(maxsize=None)
def _closure_probes(m: int):
    """The factors of theorem_4, built once per m: X and U of
    ``subset_closures``, and the sum of E(1, j, 2) over j, or None when m = 1."""
    S = range(1, m + 1)
    x, u = _ones(m, [(s, s, 1) for s in S]), _ones(m, [(1, t, t) for t in S])
    return x, u, _ones(m, [(1, j, 2) for j in S]) if m >= 2 else None


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
            if (g := gcd(x.d, *(v for slab in slabs for _, v in slab))) > 1:
                slabs = tuple(tuple((f, v // g) for f, v in s) for s in slabs)
            x = CubicMatrix._from_form(m, slabs, 1)
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

    The m^2 squares E(j, i, j)^2 are taken densely as m squares, of D_s, the
    sum of E(j, i, j) over i with j - 1 = i - 1 + s mod m, s = 0..m-1: each
    E(j, i, j) lies in one D_s.  Within D_s the outer indices differ, so no
    cross term survives, and D_s^2 must be the sum of the triple rule's
    squares E(j, a(i, i), j).  That rule squares E(j, i, j) to E(j, a(i, i), j)
    whatever j is, so each i's walk runs once, on triples (1, ., 1), against
    its power sequence and its class.
    """
    m = op.m
    steps = 2 * m
    square = lambda s: _basis_product_triple(op, s, s)
    for s in range(m):
        triples = [((i + s) % m + 1, i + 1, (i + s) % m + 1) for i in range(m)]
        d = _ones(m, triples)
        if d.mul(d, op) != _ones(m, map(square, triples)):
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


def _ones(m: int, triples) -> CubicMatrix:
    """The sum of E(i, j, k) over the distinct (i, j, k) in triples."""
    slabs = [[] for _ in range(m)]
    for i, j, k in triples:
        slabs[i - 1].append(((j - 1) * m + k - 1, 1))
    return CubicMatrix._from_form(m, tuple(tuple(sorted(slab)) for slab in slabs), 1)


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
