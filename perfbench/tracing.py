"""Spans around calls into cubal's public functions, for the traced run.

Each wrapper replaces the function's name in every cubal module that binds
it, so calls from one module into another (verify -> structure -> linalg)
are seen without changing the library.  Spans are kept in flat arrays in
memory and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute); a dotted attribute names a method.  The span is named
# after the module without its package and the attribute.
TARGETS = (
    ("cubal.cli", "main"),
    ("cubal.formats", "dump_json"),
    ("cubal.enumeration", "count_operations"),
    ("cubal.enumeration", "collect_operations"),
    ("cubal.enumeration", "orbit_census"),
    ("cubal.operations", "act"),
    ("cubal.operations", "orbit"),
    ("cubal.operations", "are_equivalent"),
    ("cubal.cubic", "CubicMatrix.mul"),
    ("cubal.structure", "permute_indices"),
    ("cubal.structure", "accompanying_image"),
    ("cubal.structure", "verify_isomorphism"),
    ("cubal.structure", "left_zero_divisor_witness"),
    ("cubal.structure", "right_zero_divisor_witness"),
    ("cubal.linalg", "rref"),
    ("cubal.linalg", "kernel_basis"),
    ("cubal.linalg", "rank"),
    ("cubal.linalg", "det"),
    ("cubal.verify", "verify_census"),
    ("cubal.verify", "verify_operation"),
    ("cubal.verify", "check_isomorphisms"),
    ("cubal.verify", "check_characters"),
    ("cubal.verify", "check_accompanying"),
    ("cubal.verify", "check_subalgebras"),
    ("cubal.verify", "check_commutativity"),
    ("cubal.verify", "check_zero_divisors"),
    ("cubal.verify", "check_plenary_powers"),
)

LAYERS = ("enumeration", "operations", "cubic", "structure", "linalg", "verify", "cli", "formats")

THEOREM_CHECKS = {
    "theorem_1": "check_isomorphisms",
    "theorem_2": "check_characters",
    "theorem_3": "check_accompanying",
    "theorem_4": "check_subalgebras",
    "commutativity": "check_commutativity",
    "zero_divisors": "check_zero_divisors",
    "plenary_powers": "check_plenary_powers",
}


def _note_mul(counters, args, result):
    na, nb = len(args[0].nonzero_items()), len(args[1].nonzero_items())
    counters["cubic.mul_terms"] += na * nb
    if na <= 1 and nb <= 1:
        counters["cubic.mul_basis_calls"] += 1


def _note_rref(counters, args, result):
    rows = args[0]
    counters["linalg.rref_cells"] += len(rows) * len(rows[0]) if rows else 0


def _note_tables(counters, args, result):
    counters["enumeration.tables"] += result if isinstance(result, int) else len(result)


def _note_report(counters, args, result):
    counters["cli.report_bytes"] += len(result.encode())


# Counters taken at a span's end, from its arguments and its result.
NOTES = {
    "cubic.CubicMatrix.mul": _note_mul,
    "linalg.rref": _note_rref,
    "enumeration.count_operations": _note_tables,
    "enumeration.collect_operations": _note_tables,
    "formats.dump_json": _note_report,
}


def _by_layer(rows: dict) -> dict[str, tuple[int, int]]:
    """Calls and self nanoseconds of each layer, summed over its span names."""
    totals = {layer: (0, 0) for layer in LAYERS}
    for name, (calls, _, own) in rows.items():
        layer = name.split(".", 1)[0]
        totals[layer] = (totals[layer][0] + calls, totals[layer][1] + own)
    return totals


class Tracer:
    """Records spans while installed; aggregates them into per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counters, note, clock = self._stack, self.counters, NOTES.get(name), time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target in the cubal modules loaded now; restore on exit."""
        modules = [m for n, m in sys.modules.items() if n == "cubal" or n.startswith("cubal.")]
        restore = []
        try:
            for module_name, attr in TARGETS:
                module = sys.modules[module_name]
                name = f"{module_name.split('.', 1)[1]}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    restore.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def aggregate(self):
        """Per span name: calls, inclusive and self nanoseconds; and inclusive
        nanoseconds of each (parent name, child name) pair."""
        k = len(self.names)
        calls, total, self_ns = [0] * k, [0] * k, [0] * k
        pairs: dict[tuple[str, str], int] = defaultdict(int)
        names, parents = self.span_name, self.span_parent
        for idx, (start, end) in enumerate(zip(self.span_start, self.span_end)):
            nid, dur = names[idx], end - start
            calls[nid] += 1
            total[nid] += dur
            self_ns[nid] += dur
            p = parents[idx]
            if p >= 0:
                pid = names[p]
                self_ns[pid] -= dur
                pairs[(self.names[pid], self.names[nid])] += dur
        rows = {n: (calls[i], total[i], self_ns[i]) for i, n in enumerate(self.names)}
        return rows, pairs

    def layer_metrics(self) -> dict[str, tuple[float | int, str]]:
        """The per-layer metrics of everything traced, as name -> (value, unit)."""
        rows, pairs = self.aggregate()

        def calls(name):
            return rows.get(name, (0, 0, 0))[0]

        def secs(name, column=1):
            return rows.get(name, (0, 0, 0))[column] / 1e9

        mul, permute = "cubic.CubicMatrix.mul", "structure.permute_indices"
        witness = ("structure.left_zero_divisor_witness", "structure.right_zero_divisor_witness")
        c = self.counters
        metrics = {
            "enumeration.count_s": (secs("enumeration.count_operations"), "s"),
            "enumeration.collect_s": (secs("enumeration.collect_operations"), "s"),
            "enumeration.tables": (c["enumeration.tables"], "count"),
            "orbits.classify_s": (
                secs("enumeration.orbit_census")
                - pairs[("enumeration.orbit_census", "enumeration.collect_operations")] / 1e9,
                "s",
            ),
            "operations.act_calls": (calls("operations.act"), "count"),
            "cubic.mul_calls": (calls(mul), "count"),
            "cubic.mul_basis_calls": (c["cubic.mul_basis_calls"], "count"),
            "cubic.mul_terms": (c["cubic.mul_terms"], "count"),
            "cubic.mul_s": (secs(mul, 2), "s"),
            "structure.permute_calls": (calls(permute), "count"),
            "structure.permute_s": (secs(permute, 2), "s"),
            "structure.zerodiv_calls": (sum(calls(w) for w in witness), "count"),
            "structure.zerodiv_s": (sum(secs(w) for w in witness), "s"),
            "linalg.rref_calls": (calls("linalg.rref"), "count"),
            "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
            "linalg.rref_s": (secs("linalg.rref", 2), "s"),
        }
        for key, check in THEOREM_CHECKS.items():
            metrics[f"verify.{key}_s"] = (secs(f"verify.{check}"), "s")
        metrics["verify.tables"] = (calls("verify.verify_operation"), "count")
        metrics["formats.dump_s"] = (secs("formats.dump_json"), "s")
        metrics["cli.report_bytes"] = (c["cli.report_bytes"], "bytes")
        for layer, (_, own) in _by_layer(rows).items():
            metrics[f"{layer}.self_s"] = (own / 1e9, "s")
        return metrics

    def table(self) -> list[str]:
        """Human lines: each span name's calls, inclusive and self time, and
        each layer's self time and calls, largest self time first."""
        rows, _ = self.aggregate()
        lines = [f"{'span':44} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for name, (n, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:44} {n:>10} {total / 1e9:>10.3f} {own / 1e9:>10.3f}")
        lines.append(f"{'layer':44} {'calls':>10} {'':>10} {'self_s':>10}")
        for layer, (n, own) in _by_layer(rows).items():
            lines.append(f"{layer:44} {n:>10} {'':>10} {own / 1e9:>10.3f}")
        return lines

    def write(self, path) -> int:
        """Write every span as a gzip'd tab-separated line; returns the count."""
        names, origin = self.names, self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for idx, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                out.write(f"{idx}\t{parent}\t{names[nid]}\t{start - origin}\t{end - origin}\n")
        return len(self.span_start)
