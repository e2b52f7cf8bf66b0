"""Every module-level function and class in the package is used.

A function or class defined at the top of a module in `src/qbisim` must be
read somewhere in the package outside its own definition, by name or as an
attribute, or be exported in `qbisim.__all__`.  An import alone is not a
read.  Helpers that only tests call belong in `tests/`.
"""

import ast
import pathlib

import qbisim

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qbisim"


def unused_definitions(sources: dict, exported) -> list:
    """(module, name) of each module-level function or class of `sources`,
    module name -> source text, that no module reads outside the
    definition itself and `exported` does not hold."""
    defined = []
    readers = {}  # name -> the (module, top-level statement) that read it
    for module, source in sorted(sources.items()):
        for k, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name, k))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                readers.setdefault(name, set()).add((module, k))
    return [(module, name) for module, name, k in defined
            if name not in exported and not readers.get(name, set()) - {(module, k)}]


def test_every_definition_is_read_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unused_definitions(sources, set(qbisim.__all__)) == []


def test_unused_definition_is_found():
    sources = {
        "a": "def used():\n    return 1\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "class Kept:\n    pass\n",
        "b": "from .a import recursive\n\n"
             "def caller():\n    return used()\n",
    }
    assert unused_definitions(sources, {"Kept"}) == [("a", "recursive"), ("b", "caller")]
