"""No module of the package imports a name it never uses, and no private
module-level name of the package is left that nothing reads.

The package re-exports its names from `__init__.py`, so that module is left
out of the import check.  A name counts as used when it appears as an
identifier anywhere in the module, annotations included.  A private name
(one leading underscore) defined at the top level of a package module counts
as read when any module of the package or of the tests loads it, reads it as
an attribute, or imports it.
"""

import ast
from pathlib import Path

import measurecycles

PACKAGE = Path(measurecycles.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport json\nfrom os import path, sep\nx: path = sep\n"
    assert unused_imports(source) == ["line 2: json"]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def private_definitions(source: str) -> set[str]:
    """The names with one leading underscore that a module binds at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names a module loads, reads as attributes, or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unread_private_names_are_found():
    source = "_LIMIT = 64\n_used = 1\ndef _helper():\n    return _used\nclass _Kind: pass\n"
    assert private_definitions(source) == {"_LIMIT", "_used", "_helper", "_Kind"}
    assert private_definitions(source) - read_names(source) == {"_LIMIT", "_helper", "_Kind"}


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    tests = sorted(Path(__file__).parent.glob("*.py"))
    read = set().union(*map(read_names, sources + [p.read_text(encoding="utf-8") for p in tests]))
    assert set().union(*map(private_definitions, sources)) - read == set()
