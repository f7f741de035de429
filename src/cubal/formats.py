"""The documented file formats: Cayley tables, cubic matrices, censuses.

Two table formats are accepted: a text form (first line m, then m rows of m
space-separated 1-based entries) and a JSON form {"m": ..., "table": [[...]]}.
Cubic matrices serialize as {"m": ..., "entries": [[["p/q", ...], ...], ...]}
with scalars rendered as reduced-fraction strings.  Table parsers reject
non-associative tables unless explicitly told not to check.
"""

from __future__ import annotations

import json
from pathlib import Path

from .cubic import CubicMatrix
from .enumeration import CensusResult
from .errors import FormatError
from .operations import Operation, orbit
from .scalars import format_scalar, parse_scalar


def dump_json(doc) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def operation_to_doc(op: Operation) -> dict:
    return {"m": op.m, "table": [list(row) for row in op.rows]}


def _doc_m(doc) -> int:
    m = doc["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise FormatError(f'"m" must be a positive integer, got {m!r}')
    return m


def operation_from_doc(doc, *, unchecked: bool = False) -> Operation:
    if not isinstance(doc, dict) or "m" not in doc or "table" not in doc:
        raise FormatError('operation document needs "m" and "table" keys')
    table = doc["table"]
    if not isinstance(table, list) or len(table) != _doc_m(doc):
        raise FormatError('"table" must hold m rows')
    return Operation(table, unchecked=unchecked)


def table_to_text(op: Operation) -> str:
    lines = [str(op.m)]
    lines.extend(" ".join(str(v) for v in row) for row in op.rows)
    return "\n".join(lines) + "\n"


def table_from_text(text: str, *, unchecked: bool = False) -> Operation:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty table file")
    try:
        m = int(lines[0])
        rows = [[int(v) for v in line.split()] for line in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad table text: {exc}") from None
    if len(rows) != m:
        raise FormatError(f"expected {m} table rows, got {len(rows)}")
    return Operation(rows, unchecked=unchecked)


def parse_operation(text: str, *, unchecked: bool = False) -> Operation:
    """Parse either table format, sniffing JSON by its leading brace."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc}") from None
        return operation_from_doc(doc, unchecked=unchecked)
    return table_from_text(text, unchecked=unchecked)


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def load_operation(path, *, unchecked: bool = False) -> Operation:
    return parse_operation(_read_text(path), unchecked=unchecked)


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
    m = _doc_m(doc)
    nested = doc["entries"]
    try:
        if len(nested) != m:
            raise FormatError(f"expected {m} outer slices, got {len(nested)}")
        parsed = [[[parse_scalar(v) for v in row] for row in plane] for plane in nested]
    except TypeError:
        raise FormatError('"entries" must nest lists of scalars three deep') from None
    return CubicMatrix.from_nested(parsed)


def load_cubic(path) -> CubicMatrix:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON in {path}: {exc}") from None
    return cubic_from_doc(doc)


def census_to_doc(census: CensusResult) -> dict:
    return {
        "m": census.m,
        "total": census.total,
        "orbit_count": census.orbit_count,
        "orbits": [
            {"representative": [list(r) for r in rep.rows], "size": size}
            for rep, size in census.representatives
        ],
    }


def census_from_doc(doc) -> CensusResult:
    try:
        m = doc["m"]
        representatives = tuple(
            (Operation(entry["representative"]), entry["size"])
            for entry in doc["orbits"]
        )
        total = doc["total"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad census document: {exc}") from None
    if doc.get("orbit_count") != len(representatives):
        raise FormatError("orbit_count disagrees with the orbit list")
    if total != sum(size for _, size in representatives):
        raise FormatError("total disagrees with the orbit sizes")
    return CensusResult(m=m, total=total, representatives=representatives)


def expand_census(census: CensusResult) -> list[Operation]:
    """Regenerate the full operation list from orbit representatives."""
    ops: set[Operation] = set()
    for rep, size in census.representatives:
        members = orbit(rep)
        if len(members) != size:
            raise FormatError(
                f"stored orbit size {size} disagrees with recomputed {len(members)}"
            )
        ops.update(members)
    return sorted(ops, key=Operation.flat)
