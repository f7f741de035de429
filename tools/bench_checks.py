"""Time each check of the verify battery, best of N, on the verify-battery inputs.

    python3 tools/bench_checks.py --repeat 5 --seed 5

The inputs are those of perfbench's verify-battery workload: all 113
associative tables on three symbols and the five seeded m = 4 tables of its
``battery_setup``.  One repeat runs every check of ``verify.battery()`` over all
of them, one check at a time; each check's best repeat is reported under the
check's function name, with their sum.  Garbage is collected before each
check's timed pass, so no check is timed collecting another's garbage.
The first repeat also fills the once-per-m cache of ``check_accompanying``,
so ``--repeat 1`` includes that fill.  A check whose verdict on any table
is not ``True`` (the rule of ``verify.failed_checks``) makes the exit
status 1.  The last line of stdout is one JSON object.
Standard library only; cubal and perfbench's ``workloads`` are imported
from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cubal import verify
from cubal.enumeration import collect_operations
from workloads import BATTERY_M, battery_setup


def verdict(result) -> bool:
    """A check returns a bool, or (bool, witness)."""
    return result[0] if isinstance(result, tuple) else result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    tables = collect_operations(BATTERY_M) + battery_setup(args.seed)["tables"]
    checks = sorted((check.__name__, check) for _, check in verify.battery())
    best = {name: float("inf") for name, _ in checks}
    failed = set()
    for _ in range(args.repeat):
        for name, check in checks:
            gc.collect()
            start = time.perf_counter()
            verdicts = [verdict(check(op)) for op in tables]
            best[name] = min(best[name], time.perf_counter() - start)
            if any(v is not True for v in verdicts):
                failed.add(name)
    for name, value in best.items():
        print(f"{name:24s} {value:8.4f} s")
    print(f"{'total':24s} {sum(best.values()):8.4f} s")
    print(json.dumps({
        "seed": args.seed,
        "repeat": args.repeat,
        "tables": len(tables),
        "python": platform.python_version(),
        "best_s": {name: round(value, 4) for name, value in best.items()},
        "total_s": round(sum(best.values()), 4),
        "failed": sorted(failed),
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
