"""Time the zero-divisor solves, best of N, on the benchmark's dense elements
and on the battery's seeded draws.

    python3 tools/bench_solves.py --repeat 15 --seed 5

Two sets of elements.  ``dense``: the generic and the singular element of
each case of perfbench's dense-algebra workload (``dense_setup(seed)``: two
m = 4 projections, two m = 4 tables and four m = 5 tables).  ``battery``:
the elements that ``verify.zero_divisor_trials`` yields, and so
``verify.check_zero_divisors`` solves, for each of the 113 associative
tables on three symbols, seeded from the table itself.  One
repeat solves the left and the right witness of every element of one set;
each set's best repeat is reported, with their sum.  Every witness is
checked once against perfbench's reference product, which does not use
cubal: a witness that is zero, or whose product with its element is not
exactly zero, makes the exit status 1.  The last line of stdout is one JSON
object; its ``sha256`` holds, per set, the digest of the value and type of
every entry of every witness, so two trees can show that they find the same
witnesses.  Standard library only; cubal and perfbench's ``workloads`` are
imported from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cubal.enumeration import collect_operations
from cubal.structure import left_zero_divisor_witness, right_zero_divisor_witness
from cubal.verify import zero_divisor_trials
from workloads import BATTERY_M, _product, dense_setup


def solve_all(pairs) -> list:
    return [
        (left_zero_divisor_witness(a, op), right_zero_divisor_witness(a, op)) for op, a in pairs
    ]


def digest(witnesses) -> str:
    h = hashlib.sha256()
    for w in (w for both in witnesses for w in both):
        h.update(repr(None if w is None else [(v, type(v).__name__) for v in w.entries]).encode())
    return h.hexdigest()


def annihilates(op, a, w, side: str) -> bool:
    pair = (a.entries, w.entries) if side == "left" else (w.entries, a.entries)
    return any(v != 0 for v in w.entries) and not any(_product(*pair, op.rows, op.m))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=15)
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    sets = {
        "dense": [(c.op, a) for c in dense_setup(args.seed) for a in c.elements],
        "battery": [(op, a) for op in collect_operations(BATTERY_M) for a in zero_divisor_trials(op)],
    }
    best = {name: float("inf") for name in sets}
    found, digests, failed = {}, {}, []
    for _ in range(args.repeat):
        for name, pairs in sets.items():
            start = time.perf_counter()
            witnesses = solve_all(pairs)
            best[name] = min(best[name], time.perf_counter() - start)
            if name not in found:
                found[name] = sum(w is not None for both in witnesses for w in both)
                digests[name] = digest(witnesses)
                for n, ((op, a), both) in enumerate(zip(pairs, witnesses)):
                    for side, w in zip(("left", "right"), both):
                        if w is not None and not annihilates(op, a, w, side):
                            failed.append(f"{name} {n} {side}")
    for name in sets:
        print(f"{name:8s} {2 * len(sets[name]):4d} solves {found[name]:4d} witnesses {best[name]:8.4f} s")
    print(f"{'total':8s} {sum(best.values()):32.4f} s")
    print(json.dumps({
        "seed": args.seed,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "solves": {name: 2 * len(pairs) for name, pairs in sets.items()},
        "witnesses": found,
        "sha256": digests,
        "best_s": {name: round(best[name], 4) for name in sets},
        "total_s": round(sum(best.values()), 4),
        "failed": failed,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
