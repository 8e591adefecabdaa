"""The benchmark's span targets name attributes that exist.

``perfbench/spans.py`` replaces each traced function or method by looking
it up with ``getattr``; a renamed target would stop a traced run with an
AttributeError, so every target is checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from gbmlab import gbsde, gcore, gexpect, pde, scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets(gcore, pde, gexpect, scenario, gbsde)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _name, _count in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
