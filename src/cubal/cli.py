"""Command-line interface.

Every command prints one JSON report document to stdout (or --out FILE);
reports are byte-deterministic for fixed inputs and flags, independent of
--jobs, so they can be diffed.  --pretty switches to a human rendering that
also shows elapsed time.  Exit codes: 0 success, 1 a verification check came
out false, 2 usage, capacity, input-format or file errors, 3 an internal error
(a fault in cubal itself, reported as "cubal: internal error: ...").

Each command is declared once, in ``build_parser``, with the handler that
computes its results.  Input files are read once and as UTF-8, files and
stderr are written as UTF-8, and the report shows path arguments as UTF-8,
whatever the locale.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cached_property
from pathlib import Path

from . import formats
from .enumeration import (
    DEFAULT_MAX_M,
    collect_operations,
    count_operations,
    orbit_census,
)
from .errors import CapacityError, CubalError, FormatError, require_count, require_size, same_size
from .linalg import det
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
    left_zero_divisor_witness,
    right_zero_divisor_witness,
)
from .verify import failed_checks, verify_census

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _env_max_m() -> int:
    raw = os.environ.get("CUBAL_MAX_M", str(DEFAULT_MAX_M))
    try:
        value = int(raw)
    except ValueError:
        value = raw
    return require_size(value, "CUBAL_MAX_M", CapacityError)


def _shown(arg: str) -> str:
    """A command-line string as the report shows it: its bytes read as UTF-8,
    whatever encoding the locale decoded them with; bytes that are not UTF-8
    stay surrogates."""
    return os.fsencode(arg).decode("utf-8", "surrogateescape")


def _complain(line: str) -> None:
    """Print a line on stderr in UTF-8, whatever the locale: a path argument in
    it shows as the bytes it was given, as ``_shown`` and ``run``'s --out keep them."""
    sys.stderr.flush()
    sys.stderr.buffer.write(f"{line}\n".encode("utf-8", "surrogateescape"))
    sys.stderr.buffer.flush()


class _Inputs:
    """What a handler reads besides its own flags.  Each input file is read
    once, as UTF-8, and its digest goes into the report's inputs."""

    def __init__(self, args, digests: dict):
        self.args, self.digests = args, digests

    def _text(self, path) -> str:
        import hashlib  # only here, so a command with no input file does not load OpenSSL
        data = Path(path).read_bytes()
        self.digests[path] = "sha256:" + hashlib.sha256(data).hexdigest()
        return formats.decode_text(data, path)

    @cached_property
    def op(self):
        """The --op table of a table command."""
        path = self.args.op
        return formats.parse_operation(self._text(path), path, unchecked=self.args.unchecked)

    def cubic(self, path):
        """A cubic matrix from a file; on a table command, it is read after the
        table and must have the table's m."""
        op = self.op if hasattr(self.args, "op") else None
        x = formats.parse_cubic(self._text(path), path)
        if op is not None:
            same_size(x, op, error=FormatError, names=(f"{path}: cubic matrix", "the table"))
        return x

    @property
    def search(self) -> dict:
        """The keyword arguments of a census command's search: --m, --jobs and
        the CUBAL_MAX_M budget."""
        return {"m": self.args.m, "jobs": self.args.jobs, "max_m": _env_max_m()}


def build_parser() -> argparse.ArgumentParser:
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--op", required=True, metavar="TABLE")
    table.add_argument("--unchecked", action="store_true", help="skip the associativity check on the table")
    census = argparse.ArgumentParser(add_help=False)
    census.add_argument("--m", type=int, required=True)
    census.add_argument("--jobs", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="cubal",
        description="Enumerate associative operations and analyze the cubic-matrix algebras they define.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, shared=None):
        p = sub.add_parser(name, help=help, parents=[shared] if shared else [])
        p.set_defaults(handler=handler)
        return p

    p = command("enum", _run_enum, "enumerate the associative operations for a given m", census)
    p.add_argument("--count-only", action="store_true")
    command("orbits", _run_orbits, "classify the census for m into relabeling orbits", census)
    p = command("mul", _run_mul, "multiply two cubic matrices under an operation", table)
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p = command("plenary", _run_plenary, "repeated squaring of a cubic matrix", table)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a", metavar="A.json")
    command("char", _run_char, "search for multiplicative linear forms", table)
    p = command("phi", _run_phi, "image of a cubic matrix in the accompanying algebra")
    p.add_argument("x", metavar="X.json")
    p = command("zerodiv", _run_zerodiv, "find an exact zero-divisor witness", table)
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("a", metavar="A.json")
    p = command("subalg", _run_subalg, "invariant subsets and the subalgebras they span", table)
    p.add_argument("--list-invariant-sets", action="store_true")
    p = command("verify", _run_verify, "run the full structural check battery over a census", census)
    p.add_argument("--all", action="store_true", help="run every check (the default battery)")
    command("classify", _run_classify, "orbit, symmetry, and power-sequence summary of one table", table)
    for p in sub.choices.values():
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="human-readable output with timing")
    return parser


def _sequence_doc(seq) -> dict:
    doc = {"tag": seq.tag, "entry": seq.entry, "period": seq.period,
           "cycle": sorted(seq.cycle)}
    if seq.tag == "convergent":
        doc["limit"] = seq.limit
    return doc


def _run_enum(args, inputs):
    if args.count_only:
        return {"m": args.m, "total": count_operations(**inputs.search)}
    ops = collect_operations(**inputs.search)
    return {"m": args.m, "total": len(ops), "operations": [op.rows for op in ops]}


def _run_orbits(args, inputs):
    return formats.census_to_doc(orbit_census(**inputs.search))


def _run_mul(args, inputs):
    a = inputs.cubic(args.a)
    b = inputs.cubic(args.b)
    return {"product": formats.cubic_to_doc(a.mul(b, inputs.op))}


def _run_plenary(args, inputs):
    require_count(args.n, "--n", FormatError)
    a = inputs.cubic(args.a)
    return {"n": args.n, "power": formats.cubic_to_doc(a.plenary_power(args.n, inputs.op))}


def _run_char(args, inputs):
    chars = character_search(inputs.op)
    return {
        "count": len(chars),
        "characters": [
            {
                "m": chi.m,
                "coefficients": [format_scalar(c) for c in chi.entries],
            }
            for chi in chars
        ],
    }


def _run_phi(args, inputs):
    u = accompanying_image(inputs.cubic(args.x))
    return {"coefficients": [[format_scalar(v) for v in row] for row in u.coeffs]}


def _run_zerodiv(args, inputs):
    a = inputs.cubic(args.a)
    finder = left_zero_divisor_witness if args.side == "left" else right_zero_divisor_witness
    witness = finder(a, inputs.op)
    return {
        "side": args.side,
        "exists": witness is not None,
        "witness": None if witness is None else formats.cubic_to_doc(witness),
        "accompanying_determinant": format_scalar(det(accompanying_image(a).coeffs)),
    }


def _run_subalg(args, inputs):
    op = inputs.op
    invariant = enumerate_invariant_subsets(op)
    nonempty = sum(1 for J in invariant if J)
    everything, middles = range(1, op.m + 1), sorted(image(op))
    results = {
        "m": op.m,
        "image": middles,
        "nonempty_invariant_count": nonempty,
        "subalgebra_count_lower_bound": nonempty,
        "image_ideal_triples": [(i, j, k) for i in everything for j in middles for k in everything],
    }
    if args.list_invariant_sets:
        results["invariant_subsets"] = [sorted(J) for J in invariant]
    return results


def _run_verify(args, inputs):
    return verify_census(**inputs.search)


def _run_classify(args, inputs):
    op = inputs.op
    members = sorted(orbit(op), key=lambda o: o.flat())
    return {
        "m": op.m,
        "symmetric": len(members) == 1,
        "symmetry": classify_symmetry(op),
        "orbit_size": len(members),
        "canonical_representative": members[0].rows,
        "image": sorted(image(op)),
        "power_sequences": {
            str(i): _sequence_doc(classify_power_sequence(i, op))
            for i in range(1, op.m + 1)
        },
    }


def _pretty_chunks(command: str, digests: dict, results, elapsed: float):
    yield f"command: {command}\n"
    for path, digest in sorted(digests.items()):
        yield f"input {path}: {digest}\n"
    yield from formats.json_chunks(results)
    yield f"elapsed: {elapsed:.3f}s\n"


def run(args) -> int:
    """Dispatch a parsed command line; prints the report, returns the exit code."""
    # jobs never changes results, so it is kept out of the report: byte
    # determinism must hold regardless of the worker count
    report = {
        "command": args.command,
        "params": {
            k: _shown(v) if isinstance(v, str) else v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "handler", "out", "pretty", "jobs") and v is not None
        },
    }
    digests = {}
    started = time.perf_counter()
    report["results"] = results = args.handler(args, _Inputs(args, digests))
    elapsed = time.perf_counter() - started
    # the JSON report shows each path as UTF-8, whatever the locale; --pretty
    # keeps the path as decoded, which writes back as the bytes it was given
    report["inputs"] = {_shown(path): digest for path, digest in digests.items()}
    # only the verify report carries all_pass; a failed check is exit 1
    code = EXIT_OK
    if results.get("all_pass") is False:
        code = EXIT_VERIFY_FAILED
        for entry in results["results"]:
            if failing := failed_checks(entry):
                print(f"cubal: checks {failing} failed for table {entry['operation']}", file=sys.stderr)
    chunks = _pretty_chunks(args.command, digests, results, elapsed) if args.pretty else formats.json_chunks(report)
    if args.out:
        # a path from the command line keeps the bytes a non-UTF-8 locale could
        # not decode as surrogates; they are written back as those bytes
        with open(args.out, "w", encoding="utf-8", errors="surrogateescape") as file:
            file.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
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
        if isinstance(getattr(exc, "filename", None), str):
            exc.filename = _shown(exc.filename)  # the message shows its repr
        _complain(f"cubal: {exc}")
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path, so a normal run does not load it

        _complain(f"cubal: internal error: {type(exc).__name__}: {exc}")
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
