"""No module of the package imports a name it never uses.

No linter runs on this repository, so an import left behind when the
code that used it is deleted would stay unnoticed. This stdlib-only
check reads each module of `src/capsnlu/` except `__init__.py` (which
imports to re-export) with `ast`: every name an import binds must be
read somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "capsnlu"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import io\n", ["io (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\n", ["c (line 1)"]),
        ("from __future__ import annotations\nimport x\ndef f() -> x.T: ...\n", []),
        ("def f():\n    import json\n", ["json (line 2)"]),
    ],
    ids=["unused", "dotted", "alias", "annotation", "nested"],
)
def test_the_check_finds_an_unused_import(source, unused):
    assert unused_imports(source) == unused
