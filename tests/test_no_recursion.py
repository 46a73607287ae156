"""No function in the library calls itself, so no formula operation has a
nesting limit.  There is no exception."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plogic"

ALLOWED = set()


def _self_calls(tree: ast.AST) -> set[str]:
    """Names of the functions in ``tree``, nested ones included, whose body
    calls the function by its own name."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ):
                    found.add(fn.name)
    return found


def test_the_guard_sees_a_nested_closure():
    code = "def outer(f):\n    def walk(n):\n        return walk(n.child)\n    return walk(f)\n"
    assert _self_calls(ast.parse(code)) == {"walk"}


def test_no_function_calls_itself():
    recursive = {
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in _self_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert recursive == ALLOWED
