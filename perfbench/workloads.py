"""The benchmark's workloads: seeded inputs, the timed units, and their checks.

Each workload is three functions.  ``setup(seed)`` builds the inputs (it is
timed as set-up, together with importing cubal); ``units(inputs)`` splits the
timed section into calls that are timed one by one; ``check(inputs,
outcomes, checks)`` records one pass/fail entry per property of the units'
outputs, against numbers and reference code that live here rather than in
cubal.  cubal modules are looked up when a unit runs, because the runner
re-imports the package for every set-up and the tracer replaces names in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from anchors import A001423, A023814, BATTERY


@dataclass
class Checks:
    """Correctness checks attempted so far, the names of those that failed,
    and values recorded alongside the result (report digests)."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def note_once(self, key: str, value) -> None:
        """Record a value that every round of a run must reproduce."""
        self.expect(self.notes.setdefault(key, value) == value, f"{key} is the same every round")


@dataclass(frozen=True)
class Workload:
    setup: Callable
    units: Callable
    check: Callable
    # The length of one round of units on the reference machine; a run of
    # --seconds makes seconds / round_s rounds, rounded, and at least one.
    round_s: float


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cubal.cli.main`` in process; its exit code and stdout report."""
    from cubal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_results(checks: Checks, report: tuple[int, str], label: str) -> dict:
    code, text = report
    checks.expect(code == 0, f"{label}: exit code {code}")
    checks.note_once(f"{label} report sha256", hashlib.sha256(text.encode()).hexdigest())
    try:
        return json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        checks.expect(False, f"{label}: report is not a JSON document with results")
        return {}


def _random_permutation(rng: random.Random, m: int):
    from cubal.operations import Permutation

    images = list(range(1, m + 1))
    rng.shuffle(images)
    return Permutation(images)


def _rows(op) -> list[list[int]]:
    return [list(r) for r in op.rows]


# --- census: enumeration and orbit classification at m = 5 ----------------

CENSUS_M = 5


def census_setup(seed: int) -> dict:
    # The census is fixed; the seed is recorded but selects nothing.
    return {"m": CENSUS_M}


def _orbit_census(m: int):
    from cubal import enumeration

    return enumeration.orbit_census(m, max_m=m)


def census_units(inputs: dict) -> list[Callable]:
    m = inputs["m"]
    return [partial(_cli, ["enum", "--m", str(m), "--count-only"]), partial(_orbit_census, m)]


def census_check(inputs: dict, outcomes: list, checks: Checks) -> None:
    m = inputs["m"]
    report, census = outcomes
    results = _report_results(checks, report, "enum --count-only")
    checks.expect(results.get("total") == A023814[m], "enum --count-only total is A023814")
    sizes = [size for _, size in census.representatives]
    checks.expect(census.total == A023814[m], "census total is A023814")
    checks.expect(len(sizes) == A001423[m], "orbit count is A001423")
    checks.expect(sum(sizes) == census.total, "orbit sizes sum to the total")
    checks.expect(all(math.factorial(m) % s == 0 for s in sizes), "orbit sizes divide m!")
    flats = [rep.flat() for rep, _ in census.representatives]
    checks.expect(all(a < b for a, b in zip(flats, flats[1:])), "representatives ascend")


# --- verify-battery: the check battery on m = 3 and sampled m = 4 tables ---

BATTERY_M = 3
SAMPLE_M = 4
# One m = 4 orbit of each size is drawn.  theorem_1 visits every orbit
# member, so a table's cost grows with its orbit size; a fixed mix keeps the
# work of one seed comparable with another's.
SAMPLE_ORBIT_SIZES = (24, 12, 6, 4, 1)


def battery_setup(seed: int) -> dict:
    from cubal import enumeration, operations

    rng = random.Random(seed)
    by_size = defaultdict(list)
    for rep, size in enumeration.orbit_census(SAMPLE_M).representatives:
        by_size[size].append(rep)
    tables = [
        operations.act(_random_permutation(rng, SAMPLE_M), rng.choice(by_size[size]))
        for size in SAMPLE_ORBIT_SIZES
    ]
    return {"m": BATTERY_M, "tables": tables}


def _verify_operation(op) -> dict:
    from cubal import verify

    return verify.verify_operation(op)


def battery_units(inputs: dict) -> list[Callable]:
    return [partial(_cli, ["verify", "--m", str(inputs["m"])])] + [
        partial(_verify_operation, op) for op in inputs["tables"]
    ]


def _expect_battery(checks: Checks, entry: dict) -> None:
    for key in BATTERY:
        checks.expect(entry.get(key) is True, f"{key} on {entry.get('operation')}")


def battery_check(inputs: dict, outcomes: list, checks: Checks) -> None:
    m = inputs["m"]
    report, *verdicts = outcomes
    results = _report_results(checks, report, f"verify --m {m}")
    entries = results.get("results", [])
    checks.expect(results.get("total") == A023814[m], "verify total is A023814")
    checks.expect(len(entries) == A023814[m], "verify reports every table")
    checks.expect(results.get("all_pass") is True, "verify all_pass")
    for entry in entries:
        _expect_battery(checks, entry)
    for op, entry in zip(inputs["tables"], verdicts, strict=True):
        checks.expect(entry.get("operation") == _rows(op), f"result is for {_rows(op)}")
        _expect_battery(checks, entry)


# --- dense-algebra: dense products and exact zero-divisor solves ----------

# The tables are fixed m = 4 orbits, evenly spaced through the census, each
# relabeled by a seeded permutation: a solve's cost depends on the table far
# more than on its labels or on the element, so this keeps every seed's work
# comparable while the seed still changes every input.
DENSE_M4_ORBITS = 2
DENSE_M5_ORBITS = 4


@dataclass(frozen=True)
class DenseCase:
    """One table and its dense elements.  ``elements`` holds a generic
    element and one made singular; y and z complete the product triple."""

    op: object
    projection: str | None
    elements: tuple
    y: object
    z: object


def _projection(m: int, side: str):
    from cubal.operations import Operation

    pick = (lambda i, j: j) if side == "right" else (lambda i, j: i)
    return Operation([[pick(i, j) for j in range(1, m + 1)] for i in range(1, m + 1)])


def _adjoin(op, kind: str):
    """op on {1..m} extended by e = m+1 acting as an identity or as a zero;
    either way the table stays associative."""
    from cubal.operations import Operation

    e = op.m + 1
    if kind == "identity":
        rows = [list(r) + [i] for i, r in enumerate(op.rows, start=1)]
        rows.append(list(range(1, e + 1)))
    else:
        rows = [list(r) + [e] for r in op.rows]
        rows.append([e] * e)
    return Operation(rows)


def _random_cubic(m: int, rng: random.Random):
    from cubal.cubic import CubicMatrix

    return CubicMatrix(
        m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m**3)]
    )


def _make_singular(x):
    """Copy the first outer slice over the last, so the accompanying matrix
    has two equal rows."""
    from cubal.cubic import CubicMatrix

    m, mm = x.m, x.m * x.m
    entries = list(x.entries)
    entries[(m - 1) * mm :] = entries[:mm]
    return CubicMatrix(m, entries)


def dense_setup(seed: int) -> list[DenseCase]:
    from cubal import enumeration, operations

    rng = random.Random(seed)
    reps = [rep for rep, _ in enumeration.orbit_census(4).representatives]
    k = DENSE_M4_ORBITS + DENSE_M5_ORBITS
    relabeled = [
        operations.act(_random_permutation(rng, 4), reps[i * len(reps) // k]) for i in range(k)
    ]
    tables = [(_projection(4, "right"), "right"), (_projection(4, "left"), "left")]
    tables += [(op, None) for op in relabeled[:DENSE_M4_ORBITS]]
    tables += [
        (_adjoin(op, ("identity", "zero")[i % 2]), None)
        for i, op in enumerate(relabeled[DENSE_M4_ORBITS:])
    ]
    cases = []
    for op, projection in tables:
        x, singular, y, z = (_random_cubic(op.m, rng) for _ in range(4))
        cases.append(DenseCase(op, projection, (x, _make_singular(singular)), y, z))
    return cases


def _dense_case(c: DenseCase) -> dict:
    from cubal import structure

    op, x = c.op, c.elements[0]
    xy = x.mul(c.y, op)
    return {
        "left": [structure.left_zero_divisor_witness(a, op) for a in c.elements],
        "right": [structure.right_zero_divisor_witness(a, op) for a in c.elements],
        "xy": xy,
        "xy_z": xy.mul(c.z, op),
        "x_yz": x.mul(c.y.mul(c.z, op), op),
        "phi_xy": structure.accompanying_image(xy),
        "plenary": x.plenary_power(2, op),
    }


def dense_units(cases: list[DenseCase]) -> list[Callable]:
    return [partial(_dense_case, c) for c in cases]


def _product(a, b, rows, m: int) -> list:
    """Reference product of flat cubic arrays: entry (i, j, r) sums
    a[i,l,k] * b[k,n,r] over k and all (l, n) with rows[l][n] = j."""
    out = [0] * (m**3)
    for i in range(m):
        for l in range(m):
            for k in range(m):
                av = a[(i * m + l) * m + k]
                if av == 0:
                    continue
                for n in range(m):
                    base = (i * m + rows[l][n] - 1) * m
                    for r in range(m):
                        bv = b[(k * m + n) * m + r]
                        if bv != 0:
                            out[base + r] += av * bv
    return out


def _fibers(entries, m: int) -> list[list]:
    """The m x m matrix of middle-index fiber sums (the accompanying matrix)."""
    return [
        [sum(entries[(i * m + j) * m + k] for j in range(m)) for k in range(m)]
        for i in range(m)
    ]


def _matmul(p: list[list], q: list[list]) -> list[list]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*q)] for row in p]


def _det(rows: list[list]) -> Fraction:
    mat = [[Fraction(v) for v in row] for row in rows]
    n, det = len(mat), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, n):
            f = mat[r][c] / mat[c][c]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
    return det


def _check_witness(checks: Checks, c: DenseCase, a, w, side: str, label: str) -> None:
    if w is None:
        return
    m = c.op.m
    pair = (a.entries, w.entries) if side == "left" else (w.entries, a.entries)
    ok = any(v != 0 for v in w.entries) and not any(_product(*pair, c.op.rows, m))
    checks.expect(ok, f"{label}: {side} witness is nonzero and annihilates exactly")


def dense_check(cases: list[DenseCase], outcomes: list[dict], checks: Checks) -> None:
    for n, (c, out) in enumerate(zip(cases, outcomes, strict=True)):
        m, rows, x = c.op.m, c.op.rows, c.elements[0]
        label = f"case {n} (m={m}, table {_rows(c.op)})"
        for e, a in enumerate(c.elements):
            _check_witness(checks, c, a, out["left"][e], "left", f"{label} element {e}")
            _check_witness(checks, c, a, out["right"][e], "right", f"{label} element {e}")
            exists = out["left"][e] is not None
            if c.projection == "right":
                singular = _det(_fibers(a.entries, m)) == 0
                checks.expect(exists == singular, f"{label} element {e}: determinant criterion")
            elif c.projection == "left":
                checks.expect(exists, f"{label} element {e}: left projection always divides zero")
        checks.expect(
            list(out["xy"].entries) == _product(x.entries, c.y.entries, rows, m),
            f"{label}: xy matches the reference product",
        )
        checks.expect(out["xy_z"] == out["x_yz"], f"{label}: (xy)z == x(yz)")
        phi_x, phi_y = _fibers(x.entries, m), _fibers(c.y.entries, m)
        checks.expect(
            [list(r) for r in out["phi_xy"].coeffs] == _matmul(phi_x, phi_y),
            f"{label}: phi(xy) == phi(x) phi(y)",
        )
        square = _matmul(phi_x, phi_x)
        checks.expect(
            _fibers(out["plenary"].entries, m) == _matmul(square, square),
            f"{label}: phi of the second plenary power is phi(x)^4",
        )


WORKLOADS = {
    "census": Workload(census_setup, census_units, census_check, round_s=30),
    "verify-battery": Workload(battery_setup, battery_units, battery_check, round_s=17),
    "dense-algebra": Workload(dense_setup, dense_units, dense_check, round_s=13),
}


def _plain(obj):
    """A JSON-ready rendering of generated inputs, for digests and tests."""
    if hasattr(obj, "rows"):
        return _rows(obj)
    if hasattr(obj, "entries"):
        return [str(v) for v in obj.entries]
    if isinstance(obj, DenseCase):
        return [_plain(getattr(obj, f)) for f in ("op", "projection", "elements", "y", "z")]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def input_bytes(inputs) -> bytes:
    """Canonical bytes of a workload's inputs: equal seeds give equal bytes."""
    return json.dumps(_plain(inputs), sort_keys=True).encode()
