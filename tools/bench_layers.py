"""Time the checks of the verify battery, the zero-divisor solves and the
dense product, best of N, and check every result once.

    python3 tools/bench_layers.py --repeat 5 --seed 5

Each layer draws its own inputs from ``--seed``.  ``checks``: each check of
``verify.battery()`` over the 113 associative tables on three symbols and
the five seeded m = 4 tables of perfbench's ``battery_setup``; a check passes
only when every verdict is ``True``, and the first repeat also fills the
once-per-m cache of ``check_accompanying``.  ``solves``: both zero-divisor
witnesses of each element of perfbench's ``dense_setup(seed)`` (``dense``)
and of ``verify.zero_divisor_trials`` on the 113 tables (``battery``); a
witness must be nonzero and annihilate its element, and each set's
``sha256`` digests the value and type of every witness entry, so two trees
can show that they find the same witnesses.  ``products``: for m = 3, 4, 5,
three orbit minima drawn with ``random.Random(seed)``, each with pairs of
four kinds: ``int`` (dense, entries in -9..9), ``rational`` (dense, p/q with
q in 1..4), ``basis`` (E(s) E(t) with s3 = t1) and ``slice`` (dense rational
times an element on the slice of last index 1, the shape of a left
witness).  ``cold`` rebuilds each right factor from its entries inside the
unit, as the witness checks multiply by a matrix just made; ``warm`` reuses
it, as the accompanying trials do.  The pairs are multiplied once before
timing, and a unit reads the entries of every product it makes.

Witnesses and products are checked against perfbench's ``_product``, which
does not use cubal.  A repeat runs every unit once, garbage collected first,
and starts each layer one unit further on than the repeat before, so no unit
always runs first; each unit's best repeat is reported.  The first repeat's
results are checked, and a wrong one is named on stderr and makes the exit
status 1.  The last line of stdout is one JSON object with a section per
layer.  cubal and perfbench's ``workloads`` are imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cubal import structure, verify
from cubal.cubic import CubicMatrix
from cubal.enumeration import collect_operations, orbit_census
from workloads import BATTERY_M, _product, battery_setup, dense_setup

SIZES = (3, 4, 5)
TABLES = 3
DENSE_PAIRS = 4
BASIS_PAIRS = 40
MODES = ("cold", "warm")
SIDES = ("left", "right")

# A unit is (name, work, judge): work() is timed and returns its result, and
# judge(result) returns the labels of its wrong items and what the report keeps.


def check_units(tables: list) -> list:
    """One unit per check of the battery, over every table, in name order."""

    def unit(check):
        def judge(verdicts):
            wrong = [n for n, v in enumerate(verdicts) if (v[0] if isinstance(v, tuple) else v) is not True]
            return [f"table {n}" for n in wrong], {"tables": len(tables)}

        return check.__name__, lambda: [check(op) for op in tables], judge

    return sorted((unit(check) for _, check in verify.battery()), key=lambda u: u[0])


def annihilates(op, a, w, side: str) -> bool:
    pair = (a.entries, w.entries) if side == "left" else (w.entries, a.entries)
    return any(v != 0 for v in w.entries) and not any(_product(*pair, op.rows, op.m))


def digest(witnesses) -> str:
    h = hashlib.sha256()
    for w in (w for both in witnesses for w in both):
        h.update(repr(None if w is None else [(v, type(v).__name__) for v in w.entries]).encode())
    return h.hexdigest()


def solve_units(sets: dict) -> list:
    """One unit per named list of (op, element) pairs: both witnesses of each."""

    def unit(name, pairs):
        def work():
            left, right = structure.left_zero_divisor_witness, structure.right_zero_divisor_witness
            return [(left(a, op), right(a, op)) for op, a in pairs]

        def judge(witnesses):
            sides = ((n, s, w) for n, both in enumerate(witnesses) for s, w in zip(SIDES, both))
            found = [(n, s, w) for n, s, w in sides if w is not None]
            wrong = [f"{n} {s}" for n, s, w in found if not annihilates(*pairs[n], w, s)]
            return wrong, {"solves": 2 * len(pairs), "witnesses": len(found), "sha256": digest(witnesses)}

        return name, work, judge

    return [unit(name, pairs) for name, pairs in sets.items()]


def operand_pairs(m: int, rng: random.Random) -> dict:
    """The (op, x, y) pairs of each kind for the seeded orbit minima of size m."""
    reps = [rep for rep, _ in orbit_census(m, max_m=m).representatives]
    cells = m**3
    dense = lambda draw: CubicMatrix(m, [draw() for _ in range(cells)])
    integer = lambda: rng.randint(-9, 9)
    rational = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    # last index 1: every m-th flat entry, from 0
    one_slice = lambda: CubicMatrix(m, [rational() if flat % m == 0 else 0 for flat in range(cells)])
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


def product_units(cases: dict) -> list:
    """A ``cold`` and a ``warm`` unit per (m, kind) list of (op, x, y) pairs."""
    for pairs in cases.values():
        for op, x, y in pairs:
            x.mul(y, op)
            y.entries  # made here, so that no cold repeat pays for it

    def unit(m, kind, mode, pairs):
        warm = lambda: [x.mul(y, op).entries for op, x, y in pairs]
        cold = lambda: [x.mul(CubicMatrix(y.m, y.entries), op).entries for op, x, y in pairs]

        def judge(products):
            want = [_product(x.entries, y.entries, op.rows, op.m) for op, x, y in pairs]
            return [str(k) for k, got in enumerate(products) if list(got) != want[k]], {"pairs": len(pairs)}

        return f"m{m}-{kind}-{mode}", warm if mode == "warm" else cold, judge

    return [unit(m, kind, mode, pairs) for (m, kind), pairs in cases.items() for mode in MODES]


def seeded_layers(seed: int) -> dict:
    """The three layers' units on the inputs drawn from ``seed``."""
    tables = collect_operations(BATTERY_M) + battery_setup(seed)["tables"]
    dense = [(c.op, a) for c in dense_setup(seed) for a in c.elements]
    trials = [(op, a) for op in collect_operations(BATTERY_M) for a in verify.zero_divisor_trials(op)]
    rng = random.Random(seed)
    cases = {(m, kind): pairs for m in SIZES for kind, pairs in operand_pairs(m, rng).items()}
    return {
        "checks": check_units(tables),
        "solves": solve_units({"dense": dense, "battery": trials}),
        "products": product_units(cases),
    }


def run(layers: dict, repeat: int, seed: int) -> int:
    """Time every unit best of ``repeat``, check the first repeat's results,
    print the table and the JSON line, and return the exit status."""
    best, info, failed = {}, {}, []
    for n in range(repeat):
        for layer, units in layers.items():
            k = n % len(units)
            for name, work, judge in units[k:] + units[:k]:
                gc.collect()
                start = time.perf_counter()
                result = work()
                took = time.perf_counter() - start
                best[layer, name] = min(best.get((layer, name), took), took)
                if n == 0:
                    wrong, info[layer, name] = judge(result)
                    failed += [f"{layer} {name} {label}" for label in wrong]
    report = {"seed": seed, "repeat": repeat, "python": platform.python_version()}
    for layer, units in layers.items():
        section = report[layer] = {"best_s": {}}
        for name, _, _ in units:
            facts = info[layer, name]
            shown = "  ".join(f"{key} {value}" for key, value in facts.items())
            print(f"{layer:8s} {name:20s} {best[layer, name]:9.5f} s  {shown}")
            section["best_s"][name] = round(best[layer, name], 5)
            for key, value in facts.items():
                section.setdefault(key, {})[name] = value
    for label in failed:
        print(f"failed: {label}", file=sys.stderr)
    print(json.dumps({**report, "failed": failed}))
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    return run(seeded_layers(args.seed), args.repeat, args.seed)


if __name__ == "__main__":
    sys.exit(main())
