"""No module imports a name it never uses (a stdlib AST scan, no linter).

A bound import name counts as used when it is read anywhere in the module
(an attribute chain counts through its root name) or listed in the module's
``__all__``.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def imported_names(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]


def test_the_scan_covers_every_tree():
    folders = {path.parts[0] for path in SOURCES}
    assert folders == {"src", "tests", "demos"}
    assert Path(__file__).relative_to(ROOT) in SOURCES


def test_the_scan_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import gcd, lcm\nos.path.join(lcm)\n"
    assert unused_imports(source) == ["system (line 2)", "gcd (line 3)"]
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []
