"""Every definition in src/cubal has a user (a stdlib AST scan, no linter).

A top-level function or class, or a method that is not a dunder, counts as
used when its name is read anywhere in src/, tests/, demos/ or perfbench/:
as a name, an attribute, an imported name, or a string that spells an
identifier or a dotted path of them (perfbench's tracer names the functions
it wraps that way).  The package's ``__init__.py`` only re-exports
names, so what it mentions does not count as a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubal"
FOLDERS = ("src", "tests", "demos", "perfbench")
REEXPORTS = PACKAGE / "__init__.py"


def definitions(tree):
    """(qualified name, bare name) of each top-level function and class and
    of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unused_definitions(defining: dict, using: list) -> list[str]:
    """The definitions in the sources ``defining`` ({label: text}) whose names
    no source in ``using`` (a list of texts) references."""
    used = set().union(*(referenced_names(ast.parse(text)) for text in using))
    return [
        f"{label}: {qualified}"
        for label, text in defining.items()
        for qualified, name in definitions(ast.parse(text))
        if name not in used
    ]


def test_the_scan_flags_a_planted_unused_method():
    defining = {
        "m.py": "class A:\n    def kept(self): ...\n    def planted(self): ...\n"
        "    def __eq__(self, other): ...\ndef helper(): ...\n",
    }
    using = ["from m import A\nA().kept()\n", "TARGETS = (('m', 'helper'),)\n"]
    assert unused_definitions(defining, using) == ["m.py: A.planted"]


def test_every_definition_in_the_package_is_used():
    package = sorted(PACKAGE.rglob("*.py"))
    sources = [
        path
        for folder in FOLDERS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != REEXPORTS
    ]
    assert set(package) - {REEXPORTS} <= set(sources)
    defining = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in package}
    using = [path.read_text(encoding="utf-8") for path in sources]
    assert unused_definitions(defining, using) == []
