"""No module of the library imports another module's private name, so a
module's underscore names can change without breaking the rest.  The one
exception: the prover evaluates a branch with the semantic kernel's
``_fill_columns``, the same column pass the truth tables use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plogic"

ALLOWED = {("proof/prover.py", "_fill_columns")}


def _private_imports(tree: ast.AST) -> set[str]:
    """The ``_``-prefixed names that ``tree`` imports from a plogic module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "plogic"
        ):
            found.update(a.name for a in node.names if a.name.startswith("_"))
    return found


def test_the_guard_sees_relative_and_absolute_imports():
    code = (
        "from __future__ import annotations\n"
        "from .proof.io import _field, load_proof\n"
        "from plogic.semantics import _row\n"
        "def f():\n    from ..formula import _intern\n"
    )
    assert _private_imports(ast.parse(code)) == {"_field", "_row", "_intern"}


def test_no_module_imports_a_private_name_of_another():
    private = {
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert private == ALLOWED
