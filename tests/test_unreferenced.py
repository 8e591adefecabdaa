"""Every private function, class and method under src/gbmlab has a caller
in src/gbmlab outside its own definition."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gbmlab"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _references(node: ast.AST) -> Counter:
    """How often each name is read in ``node``, as a name or an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 1
    everywhere = sum((_references(tree) for tree in trees.values()),
                     Counter())
    unreferenced = [f"{module}.{node.name}"
                    for module, tree in trees.items()
                    for node in ast.walk(tree)
                    if isinstance(node, _DEFS) and _private(node.name)
                    and everywhere[node.name]
                    == _references(node)[node.name]]
    assert unreferenced == []
