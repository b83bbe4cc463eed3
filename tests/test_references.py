"""Every function, class, method and property of the package is used.

No linter runs on this repository, so a definition left behind when its
last caller is deleted would stay unnoticed. This stdlib-only check
reads each module of `src/capsnlu/` with `ast`: every name that a
`def` or `class` binds must be read somewhere in `src/`, `tests/`,
`demos/` or `capsbench/`. A method or property counts as read only as
an attribute (`x.name`); any other definition also as a plain or an
imported name. Names are matched by their text alone, so one use of a
name keeps every definition of it; dunder methods, which Python calls
by itself, are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "capsnlu"
SEARCHED = [p for d in ("src", "tests", "demos", "capsbench") for p in sorted((ROOT / d).rglob("*.py"))]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source: str) -> list[tuple[int, str, bool]]:
    """(line, name, is a class member) of each function, class, method
    and property that `source` defines, dunder methods left out."""
    tree = ast.parse(source)
    members = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    return sorted(
        (node.lineno, node.name, id(node) in members)
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def references(source: str) -> tuple[set[str], set[str]]:
    """The plain and imported names that `source` reads, and its attribute names."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def unreferenced(defining: dict[str, str], sources: list[str]) -> list[str]:
    """`module:line name` of each definition in the `defining` sources,
    keyed by module, that none of `sources` reads."""
    names, attributes = set(), set()
    for source in sources:
        n, a = references(source)
        names |= n
        attributes |= a
    return [
        f"{module}:{line} {name}"
        for module, source in defining.items()
        for line, name, member in definitions(source)
        if name not in attributes and (member or name not in names)
    ]


def test_every_definition_is_referenced():
    defining = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(defining, [p.read_text(encoding="utf-8") for p in SEARCHED]) == []


@pytest.mark.parametrize(
    "source, other, found",
    [
        ("def f(): ...\n", "", ["m.py:1 f"]),
        ("def f(): ...\n", "from m import f\n", []),
        ("class A:\n    def m(self): ...\n", "A().m()\n", []),
        ("class A:\n    @property\n    def p(self): ...\n", "A\n", ["m.py:3 p"]),
        ("class A:\n    def m(self): ...\n", "A\nm = 1\nprint(m)\n", ["m.py:2 m"]),
        ("class A:\n    def __len__(self): ...\n", "A\n", []),
        ("def f():\n    def g(): ...\n    return g\n", "import m.f\n", []),
        ("def f(): ...\n", "'f'\n", ["m.py:1 f"]),
    ],
    ids=["unused", "imported", "method", "property", "plain_name_of_a_member", "dunder", "nested", "string"],
)
def test_the_check_finds_an_unreferenced_definition(source, other, found):
    assert unreferenced({"m.py": source}, [source, other]) == found
