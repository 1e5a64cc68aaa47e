"""Every module-level import of the package modules is used.

The check reads each `src/etakit/*.py` (the package `__init__`, which
imports only to re-export, aside) with the standard `ast` module: a name
bound by a module-level `import` or `from ... import` must occur as a
name somewhere else in the module.  `from __future__` imports bind no
name and are skipped."""

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
