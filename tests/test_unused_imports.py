"""Every module-level import of the package modules is used, and so is
every private module-level name.

The checks read `src/etakit/*.py` with the standard `ast` module.  A name
bound by a module-level `import` or `from ... import` must occur as a
name somewhere else in its module (the package `__init__`, which imports
only to re-export, aside); `from __future__` imports bind no name and are
skipped.  A module-level def, class or assignment whose name has one
leading underscore must be read somewhere in the package: as a name, an
attribute or an import."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "etakit").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_the_check_sees_an_unused_name():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == \
        ["math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level names with one leading underscore bound by def, class
    or assignment, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    return {name: line for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__")}


def references(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(references(tree) for tree in trees.values()))
    return [f"{module}: {name} (line {line})" for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in used]


def test_the_check_sees_a_dead_helper():
    sources = {"a.py": "_LIMIT = 3\n_seen: set = set()\n\ndef _used():\n    return _LIMIT\n\n"
                       "def _dead():\n    return _seen\n\nclass _Gone:\n    pass\n\n"
                       "def __dunder__():\n    pass\n",
               "b.py": "from .a import _used\n"}
    assert dead_helpers(sources) == ["a.py: _dead (line 7)", "a.py: _Gone (line 10)"]


def test_every_private_module_name_is_used():
    package = Path(__file__).parent.parent / "src" / "etakit"
    assert dead_helpers({p.name: p.read_text(encoding="utf-8")
                         for p in sorted(package.glob("*.py"))}) == []
