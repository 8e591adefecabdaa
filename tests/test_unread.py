"""Every parameter of every function under src/gbmlab is read in its body."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gbmlab"

# callables whose signature a protocol fixes: the shared coefficients, the
# closures of the presets and the runners, which all take (cfg, built)
EXEMPT = {("gcore", nm) for nm in ("_zero2", "_one2", "_zero3", "_zero4",
                                   "fn", "g", "g_z")} \
    | {("cli", nm) for nm in ("_run_cylinder", "_run_doob",
                               "_run_counterexample")}


def _unread(tree: ast.Module, module: str):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or (module, node.name) in EXEMPT:
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs \
            + [p for p in (a.vararg, a.kwarg) if p is not None]
        body = ast.Module(body=node.body, type_ignores=[])
        read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
        for p in params:
            if p.arg not in ("self", "cls") and p.arg not in read:
                yield f"{module}.{node.name}({p.arg})"


def test_every_parameter_is_read():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    unread = [hit for path in paths
              for hit in _unread(ast.parse(path.read_text()), path.stem)]
    assert unread == []
