"""Benchmark of the cubal pipeline: enumerate, classify, build and verify.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in one process, with jobs=1.  Set-up (importing cubal and
generating the seeded inputs) is repeated and its median reported as
setup_s.  The timed section is a list of units run in rounds, as many rounds
as --seconds holds; every round is checked, and wall_s sums each unit's
fastest round, which damps the slow swings in speed of a shared machine.
With --trace 1 the run makes one untraced and one traced round and reports
per-layer metrics instead, with the tracing overhead on its own line.  The
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics; the lines before it say the same for a reader, with the
machine, Python, commit and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metadata(seed: int) -> dict:
    """What a result must carry to be compared with another one."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def timed_setup(workload, seed: int):
    """Import cubal afresh and build the inputs, SETUP_REPEATS times; the
    inputs of the last round and the median round time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "cubal" or n.startswith("cubal.")]:
            del sys.modules[name]
        gc.collect()
        started = time.perf_counter()
        importlib.import_module("cubal.cli")
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - started)
    return inputs, statistics.median(times)


def timed_rounds(workload, inputs, rounds: int, checks, tracer=None) -> list[list[float]]:
    """Run every unit once per round and check each round's outputs; the
    time of each unit, per round.  Only the units are timed (and traced)."""
    units = workload.units(inputs)
    times = []
    for _ in range(rounds):
        outcomes, took = [], []
        with tracer.installed() if tracer else contextlib.nullcontext():
            for unit in units:
                gc.collect()
                started = time.perf_counter()
                outcomes.append(unit())
                took.append(time.perf_counter() - started)
        workload.check(inputs, outcomes, checks)
        times.append(took)
    return times


def best_total(times: list[list[float]]) -> float:
    """The sum over units of each unit's fastest round."""
    return sum(min(unit) for unit in zip(*times))


def run_one(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, Checks, input_bytes

    workload = WORKLOADS[args.workload]
    meta = metadata(args.seed)
    inputs, setup_s = timed_setup(workload, args.seed)
    meta["inputs_sha256"] = hashlib.sha256(input_bytes(inputs)).hexdigest()
    checks = Checks()
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        plain = timed_rounds(workload, inputs, 1, checks)
        times = timed_rounds(workload, inputs, 1, checks, tracer)
        metrics = tracer.layer_metrics()
        spans_path = OUT / f"spans-{stem}.tsv.gz"
        count = tracer.write(spans_path)
        lines += tracer.table()
        base, slow = best_total(plain), best_total(times)
        lines.append(
            f"tracing overhead: traced wall_s {slow:.3f} s - untraced wall_s {base:.3f} s"
            f" = {slow - base:.3f} s ({100 * (slow - base) / base:.1f}%)"
        )
        lines.append(f"spans: {count} written to {spans_path.relative_to(ROOT)}")
    else:
        rounds = max(1, round(args.seconds / workload.round_s))
        times = timed_rounds(workload, inputs, rounds, checks)
        metrics = {
            "wall_s": (best_total(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed = len(checks.failures)
    lines.append(f"rounds: {len(times)} ({', '.join(f'{sum(r):.3f}' for r in times)} s)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value} {unit}")
    lines.append(
        f"fail_ratio: {failed / checks.attempted} ratio"
        f" ({failed} of {checks.attempted} checks failed)"
    )
    lines += [f"failed: {what}" for what in checks.failures[:20]]
    lines += [f"{key}: {value}" for key, value in checks.notes.items()]
    lines.append("meta: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, meta=meta, notes=checks.notes, failures=checks.failures, unit_times=times)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    summary, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            code = done.returncode or 1
            continue
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':16} {'metric':24} {'value':>14} unit")
    for name, result in summary.items():
        fail_ratio = result["failed"] / result["attempted"]
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        for metric, value, unit in rows + [("fail_ratio", fail_ratio, "ratio")]:
            print(f"{name:16} {metric:24} {value:>14.6g} {unit}")
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubal" / "__init__.py").is_file():
        print(f"perfbench: no cubal sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
