"""The benchmark's traced run wraps functions by (module, name); a refactor
that drops one of those names breaks ``perfbench/run.py --trace 1``
without failing any other test.

``perfbench/spans.py`` is read, not imported: ``tests`` and ``perfbench``
each have an ``oracle`` module, so the two directories cannot share one
process.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    pairs = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("CALLS", "GENERATORS")
            for t in node.targets
        ):
            for module, name, *_ in ast.literal_eval(node.value):
                if module.split(".")[0] == "plogic":
                    pairs.append((module, name))
    return pairs


def test_every_traced_plogic_name_is_bound():
    pairs = _traced_names()
    assert pairs
    unbound = [
        (module, name)
        for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]
    assert unbound == []
