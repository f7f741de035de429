"""The documented file formats: Cayley tables, cubic matrices, censuses, reports.

Two table formats are accepted: a text form (first line m, then m rows of m
space-separated 1-based entries) and a JSON form {"m": ..., "table": [[...]]}.
Cubic matrices serialize as {"m": ..., "entries": [[["p/q", ...], ...], ...]}
with scalars rendered as reduced-fraction strings.  Table parsers reject
non-associative tables unless explicitly told not to check.  A report is the
text of ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, which
``json_chunks`` makes in chunks of about 64 KB, so no output holds it whole.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quoted

from .cubic import CubicMatrix
from .enumeration import CensusResult, count_operations
from .errors import FormatError, require_size, same_size
from .operations import Operation, orbit
from .scalars import format_scalar, parse_scalar


def dump_json(doc) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline."""
    return "".join(json_chunks(doc))


def json_chunks(doc):
    """``dump_json(doc)`` in chunks of about 64 KB of ``_pieces``; dict keys are strings."""
    chunk, size = [], 0
    for piece in _pieces(doc, "\n", {}):
        chunk.append(piece)
        if (size := size + len(piece)) >= 1 << 16:
            yield "".join(chunk)
            chunk, size = [], 0
    yield "".join(chunk) + "\n"


# a scalar's text by its exact type; json.dumps makes the rest and rejects non-JSON types
_SCALAR = {str: _quoted, int: int.__repr__, bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _pieces(o, nl: str, rows: dict):
    """The pieces of o, with nl the newline and indent of its depth.  A list of
    ints (``type(v) is int``, no bool) is one piece, made once per value and depth."""
    if isinstance(o, (list, tuple)) and o and all(type(v) is int for v in o):
        if (key := (nl, *o)) not in rows:
            rows[key] = f"[{nl}  {(',' + nl + '  ').join(map(str, o))}{nl}]"
        yield rows[key]
    elif isinstance(o, (list, tuple, dict)) and o:
        keys, inner, sep = isinstance(o, dict), nl + "  ", "{" if isinstance(o, dict) else "["
        for k in sorted(o) if keys else range(len(o)):
            yield f"{sep}{inner}{_quoted(k)}: " if keys else sep + inner
            yield from _pieces(o[k], inner, rows)
            sep = ","
        yield nl + ("}" if keys else "]")
    else:
        yield _SCALAR.get(type(o), json.dumps)(o)


def operation_from_doc(doc, *, unchecked: bool = False) -> Operation:
    if not isinstance(doc, dict) or "m" not in doc or "table" not in doc:
        raise FormatError('operation document needs "m" and "table" keys')
    table = doc["table"]
    if not isinstance(table, list) or len(table) != require_size(doc["m"], '"m"'):
        raise FormatError('"table" must hold m rows')
    return Operation(table, unchecked=unchecked)


def table_from_text(text: str, *, unchecked: bool = False) -> Operation:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty table file")
    try:
        m = require_size(int(lines[0]), '"m"')
        rows = [[int(v) for v in line.split()] for line in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad table text: {exc}") from None
    if len(rows) != m:
        raise FormatError(f"expected {m} table rows, got {len(rows)}")
    return Operation(rows, unchecked=unchecked)


def parse_operation(text: str, path, *, unchecked: bool = False) -> Operation:
    """Parse either table format, the text of the file at path, sniffing JSON
    by its leading brace."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON in {path}: {exc}") from None
        return operation_from_doc(doc, unchecked=unchecked)
    return table_from_text(text, unchecked=unchecked)


def decode_text(data: bytes, path) -> str:
    """The text of an input file's bytes, which must be UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def cubic_to_doc(x: CubicMatrix) -> dict:
    return {
        "m": x.m,
        "entries": [
            [[format_scalar(v) for v in row] for row in plane]
            for plane in x.to_nested()
        ],
    }


def cubic_from_doc(doc) -> CubicMatrix:
    if not isinstance(doc, dict) or "m" not in doc or "entries" not in doc:
        raise FormatError('cubic matrix document needs "m" and "entries" keys')
    m = require_size(doc["m"], '"m"')
    nested = doc["entries"]
    if not isinstance(nested, list) or not all(
        isinstance(plane, list) and all(isinstance(row, list) for row in plane) for plane in nested
    ):
        raise FormatError('"entries" must nest lists of scalars three deep')
    if len(nested) != m:
        raise FormatError(f"expected {m} outer slices, got {len(nested)}")
    parsed = [[[parse_scalar(v) for v in row] for row in plane] for plane in nested]
    return CubicMatrix.from_nested(parsed)


def parse_cubic(text: str, path) -> CubicMatrix:
    """The cubic matrix of a JSON document, the text of the file at path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON in {path}: {exc}") from None
    return cubic_from_doc(doc)


def census_to_doc(census: CensusResult) -> dict:
    return {
        "m": census.m,
        "total": census.total,
        "orbit_count": census.orbit_count,
        "orbits": [
            {"representative": rep.rows, "size": size}
            for rep, size in census.representatives
        ],
    }


def census_from_doc(doc) -> CensusResult:
    """The census of a document that ``orbits`` could have written; else FormatError."""
    try:
        m = require_size(doc["m"], '"m"')
        representatives = tuple(
            (Operation(entry["representative"]), entry["size"])
            for entry in doc["orbits"]
        )
        stated_total = doc["total"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad census document: {exc}") from None
    total = sum(require_size(size, "an orbit size") for _, size in representatives)
    census, previous = CensusResult(m=m, total=total, representatives=representatives), ()
    for n, (rep, size) in enumerate(representatives, 1):
        same_size(census, rep, error=FormatError)
        if (flat := rep.flat()) <= previous:
            raise FormatError(f"orbit {n}: representative {rep.rows} is not above orbit {n - 1}'s")
        if math.factorial(m) % size:
            raise FormatError(f"orbit {n}: size {size} does not divide {m}!")
        previous = flat
    if doc.get("orbit_count") != census.orbit_count:
        raise FormatError("orbit_count disagrees with the orbit list")
    if stated_total != total:
        raise FormatError("total disagrees with the orbit sizes")
    return census


def expand_census(census: CensusResult) -> list[Operation]:
    """Regenerate the full operation list from orbit representatives that cover it."""
    ops: set[Operation] = set()
    for n, (rep, size) in enumerate(census.representatives, 1):
        members = orbit(rep)
        if len(members) != size:
            raise FormatError(f"orbit {n}: stored orbit size {size} disagrees with recomputed {len(members)}")
        if min(members, key=Operation.flat) != rep:
            raise FormatError(f"orbit {n}: representative {rep.rows} is not its orbit's minimum")
        ops.update(members)
    if len(ops) != (count := count_operations(census.m, max_m=census.m)):
        raise FormatError(f"the orbits hold {len(ops)} of the {count} associative tables on {census.m} symbols")
    return sorted(ops, key=Operation.flat)
