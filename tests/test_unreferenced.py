"""Every private function, class and method under src/gbmlab has a caller
in src/gbmlab outside its own definition, and every private module-level
name is read there."""

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


def _reads(node: ast.AST) -> set:
    """The names loaded in ``node``, as a name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _trees() -> dict:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 1
    return trees


def test_every_private_definition_is_referenced():
    trees = _trees()
    everywhere = sum((_references(tree) for tree in trees.values()),
                     Counter())
    unreferenced = [f"{module}.{node.name}"
                    for module, tree in trees.items()
                    for node in ast.walk(tree)
                    if isinstance(node, _DEFS) and _private(node.name)
                    and everywhere[node.name]
                    == _references(node)[node.name]]
    assert unreferenced == []


def test_every_private_module_level_name_is_read():
    # a constant or table bound at a module's top level is read somewhere
    # under src/gbmlab (by name, or as an attribute of its module); a
    # private import is read in the module that imports it
    trees = _trees()
    everywhere = set().union(*(_reads(tree) for tree in trees.values()))
    unread = []
    for module, tree in trees.items():
        here = _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(a.asname or a.name).split(".")[0]
                         for a in node.names]
                unread += [f"{module}.{nm}" for nm in names
                           if _private(nm) and nm not in here]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                unread += [f"{module}.{n.id}" for t in targets
                           for n in ast.walk(t)
                           if isinstance(n, ast.Name)
                           and isinstance(n.ctx, ast.Store)
                           and _private(n.id) and n.id not in everywhere]
    assert unread == []
