"""Command-line interface.

Every command prints one JSON report document to stdout (or --out FILE);
reports are byte-deterministic for fixed inputs and flags, independent of
--jobs, so they can be diffed.  --pretty switches to a human rendering that
also shows elapsed time.  Exit codes: 0 success, 1 a verification check came
out false, 2 usage, capacity, input-format or file errors, 3 an internal error
(a fault in cubal itself, reported as "cubal: internal error: ...").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import formats
from .enumeration import (
    DEFAULT_MAX_M,
    collect_operations,
    count_operations,
    orbit_census,
)
from .errors import CubalError, FormatError
from .operations import (
    classify_power_sequence,
    classify_symmetry,
    enumerate_invariant_subsets,
    image,
    orbit,
)
from .scalars import format_scalar
from .structure import (
    accompanying_image,
    character_search,
    image_ideal_span,
    left_zero_divisor_witness,
    right_zero_divisor_witness,
)
from .verify import verify_census

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _env_max_m() -> int:
    raw = os.environ.get("CUBAL_MAX_M", str(DEFAULT_MAX_M))
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"CUBAL_MAX_M must be an integer, got {raw!r}") from None


def _digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubal",
        description="Enumerate associative operations and analyze the cubic-matrix algebras they define.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="human-readable output with timing")

    p = sub.add_parser("enum", help="enumerate the associative operations for a given m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--census", metavar="FILE", help="also write the orbit census JSON here")
    p.add_argument("--jobs", type=int, default=1)
    add_common(p)

    p = sub.add_parser("orbits", help="classify the census for m into relabeling orbits")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_common(p)

    p = sub.add_parser("mul", help="multiply two cubic matrices under an operation")
    p.add_argument("--op", required=True, metavar="TABLE")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--unchecked", action="store_true", help="skip the associativity check on the table")
    add_common(p)

    p = sub.add_parser("plenary", help="repeated squaring of a cubic matrix")
    p.add_argument("--op", required=True, metavar="TABLE")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a", metavar="A.json")
    p.add_argument("--unchecked", action="store_true")
    add_common(p)

    p = sub.add_parser("char", help="search for multiplicative linear forms")
    p.add_argument("--op", required=True, metavar="TABLE")
    p.add_argument("--unchecked", action="store_true")
    add_common(p)

    p = sub.add_parser("phi", help="image of a cubic matrix in the accompanying algebra")
    p.add_argument("x", metavar="X.json")
    add_common(p)

    p = sub.add_parser("zerodiv", help="find an exact zero-divisor witness")
    p.add_argument("--op", required=True, metavar="TABLE")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("a", metavar="A.json")
    p.add_argument("--unchecked", action="store_true")
    add_common(p)

    p = sub.add_parser("subalg", help="invariant subsets and the subalgebras they span")
    p.add_argument("--op", required=True, metavar="TABLE")
    p.add_argument("--list-invariant-sets", action="store_true")
    p.add_argument("--unchecked", action="store_true")
    add_common(p)

    p = sub.add_parser("verify", help="run the full structural check battery over a census")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--all", action="store_true", help="run every check (the default battery)")
    p.add_argument("--jobs", type=int, default=1)
    add_common(p)

    p = sub.add_parser("classify", help="orbit, symmetry, and power-sequence summary of one table")
    p.add_argument("--op", required=True, metavar="TABLE")
    p.add_argument("--unchecked", action="store_true")
    add_common(p)

    return parser


def _sequence_doc(seq) -> dict:
    doc = {"tag": seq.tag, "entry": seq.entry, "period": seq.period,
           "cycle": sorted(seq.cycle)}
    if seq.tag == "convergent":
        doc["limit"] = seq.limit
    return doc


def _run_enum(args, report):
    max_m = _env_max_m()
    if args.census:
        census = orbit_census(args.m, jobs=args.jobs, max_m=max_m)
        Path(args.census).write_text(formats.dump_json(formats.census_to_doc(census)))
        report["results"] = {"m": args.m, "total": census.total,
                             "census_file": args.census}
        return EXIT_OK
    if args.count_only:
        total = count_operations(args.m, jobs=args.jobs, max_m=max_m)
        report["results"] = {"m": args.m, "total": total}
        return EXIT_OK
    ops = collect_operations(args.m, jobs=args.jobs, max_m=max_m)
    report["results"] = {
        "m": args.m,
        "total": len(ops),
        "operations": [[list(r) for r in op.rows] for op in ops],
    }
    return EXIT_OK


def _run_orbits(args, report):
    census = orbit_census(args.m, jobs=args.jobs, max_m=_env_max_m())
    report["results"] = formats.census_to_doc(census)
    return EXIT_OK


def _load_op(args, report):
    report["inputs"][args.op] = _digest(args.op)
    return formats.load_operation(args.op, unchecked=args.unchecked)


def _load_cubic(path, op, report):
    """A cubic matrix from a file, which must match the table's m."""
    x = formats.load_cubic(path)
    if x.m != op.m:
        raise FormatError(f"{path}: cubic matrix has m={x.m}, the table has m={op.m}")
    report["inputs"][path] = _digest(path)
    return x


def _run_mul(args, report):
    op = _load_op(args, report)
    a = _load_cubic(args.a, op, report)
    b = _load_cubic(args.b, op, report)
    report["results"] = {"product": formats.cubic_to_doc(a.mul(b, op))}
    return EXIT_OK


def _run_plenary(args, report):
    if args.n < 0:
        raise FormatError(f"--n must be >= 0, got {args.n}")
    op = _load_op(args, report)
    a = _load_cubic(args.a, op, report)
    report["results"] = {
        "n": args.n,
        "power": formats.cubic_to_doc(a.plenary_power(args.n, op)),
    }
    return EXIT_OK


def _run_char(args, report):
    op = _load_op(args, report)
    chars = character_search(op)
    report["results"] = {
        "count": len(chars),
        "characters": [
            {
                "m": chi.m,
                "coefficients": [format_scalar(c) for c in chi.entries],
            }
            for chi in chars
        ],
    }
    return EXIT_OK


def _run_phi(args, report):
    x = formats.load_cubic(args.x)
    report["inputs"][args.x] = _digest(args.x)
    u = accompanying_image(x)
    report["results"] = {
        "coefficients": [[format_scalar(v) for v in row] for row in u.coeffs]
    }
    return EXIT_OK


def _run_zerodiv(args, report):
    op = _load_op(args, report)
    a = _load_cubic(args.a, op, report)
    finder = left_zero_divisor_witness if args.side == "left" else right_zero_divisor_witness
    witness = finder(a, op)
    report["results"] = {
        "side": args.side,
        "exists": witness is not None,
        "witness": None if witness is None else formats.cubic_to_doc(witness),
        "accompanying_determinant": format_scalar(accompanying_image(a).det()),
    }
    return EXIT_OK


def _run_subalg(args, report):
    op = _load_op(args, report)
    invariant = enumerate_invariant_subsets(op)
    nonempty = sum(1 for J in invariant if J)
    ideal = image_ideal_span(op)
    results = {
        "m": op.m,
        "image": sorted(image(op)),
        "nonempty_invariant_count": nonempty,
        "subalgebra_count_lower_bound": nonempty,
        "image_ideal_triples": [list(t) for t in sorted(ideal.triples)],
    }
    if args.list_invariant_sets:
        results["invariant_subsets"] = [sorted(J) for J in invariant]
    report["results"] = results
    return EXIT_OK


def _run_verify(args, report):
    doc = verify_census(args.m, jobs=args.jobs, max_m=_env_max_m())
    report["results"] = doc
    if doc["all_pass"]:
        return EXIT_OK
    for entry in doc["results"]:
        failing = [
            key
            for key, value in entry.items()
            if key not in ("operation", "witnesses") and value is not True
        ]
        if failing:
            print(
                f"cubal: checks {failing} failed for table {entry['operation']}",
                file=sys.stderr,
            )
    return EXIT_VERIFY_FAILED


def _run_classify(args, report):
    op = _load_op(args, report)
    members = sorted(orbit(op), key=lambda o: o.flat())
    report["results"] = {
        "m": op.m,
        "symmetric": len(members) == 1,
        "symmetry": classify_symmetry(op),
        "orbit_size": len(members),
        "canonical_representative": [list(r) for r in members[0].rows],
        "image": sorted(image(op)),
        "power_sequences": {
            str(i): _sequence_doc(classify_power_sequence(i, op))
            for i in range(1, op.m + 1)
        },
    }
    return EXIT_OK


_HANDLERS = {
    "enum": _run_enum,
    "orbits": _run_orbits,
    "mul": _run_mul,
    "plenary": _run_plenary,
    "char": _run_char,
    "phi": _run_phi,
    "zerodiv": _run_zerodiv,
    "subalg": _run_subalg,
    "verify": _run_verify,
    "classify": _run_classify,
}


def _pretty_lines(report, elapsed: float) -> str:
    out = [f"command: {report['command']}"]
    for path, digest in sorted(report["inputs"].items()):
        out.append(f"input {path}: {digest}")
    out.append(json.dumps(report["results"], indent=2, sort_keys=True))
    out.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(out) + "\n"


def run(args) -> int:
    """Dispatch a parsed command line; prints the report, returns the exit code."""
    if getattr(args, "jobs", 1) < 1:
        raise FormatError("--jobs must be >= 1")
    # jobs never changes results, so it is kept out of the report: byte
    # determinism must hold regardless of the worker count
    report = {
        "command": args.command,
        "params": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "out", "pretty", "jobs") and v is not None
        },
        "inputs": {},
    }
    started = time.perf_counter()
    code = _HANDLERS[args.command](args, report)
    elapsed = time.perf_counter() - started
    text = _pretty_lines(report, elapsed) if args.pretty else formats.dump_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return run(args)
    except (CubalError, OSError) as exc:
        print(f"cubal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path, so a normal run does not load it

        print(f"cubal: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
