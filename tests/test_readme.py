"""The README's examples run as written, and its lists of settings match
the CLI.

Each ``python`` block is executed, the ``ini`` block is written as
``run.cfg`` in a temporary working directory, and each ``gbmlab`` line of
the ``sh`` blocks is validated through the CLI with ``--dry-run``.
"""

from __future__ import annotations

import dataclasses
import re
import shlex
from pathlib import Path

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
