"""No module of the library imports another module's private name, so a
module's underscore names can change without breaking the rest.  The one
exception: the prover evaluates a branch with the semantic kernel's
``_fill_columns``, the same column pass the truth tables use.

The proof checker and the rule modules it shares with the prover
(``proof/axioms.py``, ``defs.py``) never import the prover or the proof
file loader, directly or through another plogic module."""

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


def _imported_files(path: Path) -> set[str]:
    """The plogic source files, relative to ``SRC``, that ``path`` imports."""
    package = ["plogic", *path.parent.relative_to(SRC).parts]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            stem = package[: len(package) - node.level + 1] if node.level else []
            stem += node.module.split(".") if node.module else []
            modules = [stem] + [stem + [a.name] for a in node.names]
        else:
            continue
        for parts in modules:
            if parts[0] != "plogic":
                continue
            target = SRC.joinpath(*parts[1:])
            for candidate in (target.with_suffix(".py"), target / "__init__.py"):
                if len(parts) > 1 and candidate.is_file():
                    found.add(candidate.relative_to(SRC).as_posix())
    return found


def _reachable(start: list[str]) -> set[str]:
    seen, todo = set(), list(start)
    while todo:
        rel = todo.pop()
        if rel not in seen:
            seen.add(rel)
            todo += _imported_files(SRC / rel)
    return seen


def test_the_import_walk_sees_package_and_submodule_imports():
    assert {"proof/prover.py", "proof/io.py", "defs.py"} <= _reachable(["proof/__init__.py"])
    assert "proof/prover.py" in _reachable(["cli.py"])


def test_the_checker_and_its_rules_never_import_the_prover_or_the_loader():
    reached = _reachable(["proof/checker.py", "proof/axioms.py", "defs.py"])
    assert {"proof/checker.py", "proof/axioms.py", "defs.py", "formula.py"} <= reached
    assert reached.isdisjoint({"proof/prover.py", "proof/io.py"})
