"""The README's examples run as written, and its lists of settings and
its budget table match the code.

Each ``python`` block is executed, the ``ini`` block is written as
``run.cfg`` in a temporary working directory, and each ``gbmlab`` line of
the ``sh`` blocks is validated through the CLI with ``--dry-run``.
"""

from __future__ import annotations

import dataclasses
import re
import shlex
from pathlib import Path

from gbmlab import gbsde, gexpect, pde, scenario
from gbmlab.cli import RunConfig, _main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    python = _blocks("python")
    assert python
    for code in python:
        exec(compile(code, str(README), "exec"), {})
    ini = _blocks("ini")
    assert len(ini) == 1
    (tmp_path / "run.cfg").write_text(ini[0], encoding="utf-8")
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("gbmlab ")]
    assert lines
    for line in lines:
        assert _main([*shlex.split(line)[1:], "--dry-run"]) == 0, line


def test_readme_names_the_settings_with_choices():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"A name \(([^)]*)\) outside its choices", text)
    assert listed, "README no longer lists the settings with choices"
    named = set(re.findall(r"`(\w+)`", listed.group(1)))
    assert named == {f.name for f in dataclasses.fields(RunConfig)
                     if f.metadata["choices"]}


def _shown_values(value: int) -> set:
    """The ways the budget table may write ``value``: 8192, 250,000, 2^26."""
    forms = {str(value), f"{value:,}"}
    if value > 0 and value & (value - 1) == 0:
        forms.add(f"2^{value.bit_length() - 1}")
    return forms


def test_readme_budget_table_names_every_budget_constant():
    # every limit (a name with MAX) and floor (MIN) of the budget modules,
    # written as "`module.NAME` | value" or "`module.NAME` = value"
    text = README.read_text(encoding="utf-8")
    table = "\n".join(line for line in text.splitlines()
                      if line.startswith("| `"))
    assert "gcore.charge" in text
    constants = {f"{module.__name__.split('.')[-1]}.{name}": value
                 for module in (pde, gexpect, scenario, gbsde)
                 for name, value in vars(module).items()
                 if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)
                 and re.search(r"(^|_)(MAX|MIN)(_|$)", name)
                 and isinstance(value, int)}
    assert len(constants) >= 10
    for qualified, value in constants.items():
        shown = re.search(rf"`{re.escape(qualified)}` [|=] ([\w^,]+)", table)
        assert shown, f"{qualified} is not in README's budget table"
        assert shown.group(1) in _shown_values(value), (qualified, value)
