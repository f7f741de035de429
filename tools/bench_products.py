"""Time the dense product, best of N, on four kinds of operand pairs at
m = 3, 4 and 5, with a fresh right factor and with a reused one.

    python3 tools/bench_products.py --repeat 7 --seed 5

For each m, three orbit minima are drawn from ``orbit_census(m)`` with
``random.Random(seed)``, and each gets operand pairs of four kinds:
``int`` (dense, entries in -9..9), ``rational`` (dense, p/q with q in 1..4),
``basis`` (E(s) E(t) with s3 = t1) and ``slice`` (a dense rational element
times one supported on the slice of last index 1, the shape of a left
zero-divisor witness).  The operands are built once and multiplied once
before timing, and the right factors' entries are read.  Each kind is timed in two modes.
``cold`` rebuilds every right factor from its entries inside the timed
``mul``, as the battery's witness checks multiply by a matrix just made, so
the time includes making that factor's int form.  ``warm`` reuses the kept
right factors, as the accompanying trials multiply by the same elements
again.  The left factors and the tables are kept in both modes.  One repeat
multiplies every pair of one kind, m and mode (``mul``) and then reads the
entries of every product (``entries``); each best repeat is reported, and
``total`` is the best repeat of the two together.  Every product of the
first repeat is checked against perfbench's reference product, which does
not use cubal: a product that differs makes the exit status 1.  The last
line of stdout is one JSON object.  Standard library only; cubal and
perfbench's ``workloads`` are imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cubal.cubic import CubicMatrix
from cubal.enumeration import orbit_census
from workloads import _product

SIZES = (3, 4, 5)
TABLES = 3
DENSE_PAIRS = 4
BASIS_PAIRS = 40
MODES = ("cold", "warm")


def operand_pairs(m: int, rng: random.Random) -> dict:
    """The (op, x, y) pairs of each kind for the seeded orbit minima of size m."""
    reps = [rep for rep, _ in orbit_census(m, max_m=m).representatives]
    cells = m**3
    dense = lambda draw: CubicMatrix(m, [draw() for _ in range(cells)])
    integer = lambda: rng.randint(-9, 9)
    rational = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    # last index 1: every m-th flat entry, from 0
    one_slice = lambda: CubicMatrix(
        m, [rational() if flat % m == 0 else 0 for flat in range(cells)]
    )
    index = lambda: rng.randint(1, m)
    pairs: dict = {"int": [], "rational": [], "basis": [], "slice": []}
    for op in rng.sample(reps, min(TABLES, len(reps))):
        for _ in range(DENSE_PAIRS):
            pairs["int"].append((op, dense(integer), dense(integer)))
            pairs["rational"].append((op, dense(rational), dense(rational)))
            pairs["slice"].append((op, dense(rational), one_slice()))
        for _ in range(BASIS_PAIRS):  # E(s) E(t) with s3 = t1 = k
            i, j, k, n, r = (index() for _ in range(5))
            pairs["basis"].append((op, CubicMatrix.basis(m, i, j, k), CubicMatrix.basis(m, k, n, r)))
    return pairs


def products(pairs: list, mode: str) -> list:
    """The products of one repeat: warm reuses each right factor, cold
    rebuilds it from its entries first."""
    if mode == "warm":
        return [x.mul(y, op) for op, x, y in pairs]
    return [x.mul(CubicMatrix(y.m, y.entries), op) for op, x, y in pairs]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    rng = random.Random(args.seed)
    cases = {(m, kind): pairs for m in SIZES for kind, pairs in operand_pairs(m, rng).items()}
    for pairs in cases.values():
        for op, x, y in pairs:
            x.mul(y, op)
            y.entries  # made here, so that no cold repeat pays for it
    best = {
        (m, kind, mode): dict.fromkeys(("mul", "entries", "total"), float("inf"))
        for m, kind in cases
        for mode in MODES
    }
    failed = []
    for n in range(args.repeat):
        for (m, kind, mode), times in best.items():
            pairs = cases[m, kind]
            start = time.perf_counter()
            made = products(pairs, mode)
            mid = time.perf_counter()
            entries = [z.entries for z in made]
            end = time.perf_counter()
            for name, took in (("mul", mid - start), ("entries", end - mid), ("total", end - start)):
                times[name] = min(times[name], took)
            if n == 0:
                for k, ((op, x, y), got) in enumerate(zip(pairs, entries)):
                    if list(got) != _product(x.entries, y.entries, op.rows, op.m):
                        failed.append(f"m={m} {kind} {mode} {k}")
    for (m, kind, mode), times in best.items():
        print(
            f"m={m} {kind:8s} {mode} {len(cases[m, kind]):4d} products"
            f" mul {times['mul']:8.5f} s entries {times['entries']:8.5f} s total {times['total']:8.5f} s"
        )
    grand = sum(times["total"] for times in best.values())
    print(f"{'total':42s} {grand:8.5f} s")
    print(json.dumps({
        "seed": args.seed,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "products": {f"m{m}-{kind}": len(pairs) for (m, kind), pairs in cases.items()},
        "best_s": {
            f"m{m}-{kind}-{mode}": {name: round(t, 5) for name, t in times.items()}
            for (m, kind, mode), times in best.items()
        },
        "total_s": round(grand, 5),
        "failed": failed,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
