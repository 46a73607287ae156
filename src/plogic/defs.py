"""Definitional equations of the calculus.

Negation and disjunction are the primitive connectives; everything else
is an abbreviation, rewritten one step at a time by DEF proof lines:

    a imp b   =  !a or b
    a and b   =  !(!a or !b)
    a iff b   =  (a imp b) and (b imp a)
    a nor b   =  !(a or b)
    a nand b  =  !(a and b)
    a nimp b  =  !(a imp b)
    a xor b   =  !(a iff b)
    a xiff b  =  a iff b

``rewrite`` is the DEF rule: the prover writes, and the checker replays,
every DEF line with it.
"""

from __future__ import annotations

import enum

from .formula import Atom, Bin, Formula, Not, Operator, Path, replace_at, subformula_at

DEFINED_OPS = (
    Operator.IMP,
    Operator.AND,
    Operator.IFF,
    Operator.NOR,
    Operator.NAND,
    Operator.NIMP,
    Operator.XOR,
    Operator.UPDOWN,
)


class Direction(enum.Enum):
    UNFOLD = "UNFOLD"
    FOLD = "FOLD"


def definiens(op: Operator, a: Formula, b: Formula) -> Formula:
    """Right-hand side of the definition of ``op`` applied to (a, b)."""
    if op is Operator.IMP:
        return Bin(Operator.OR, Not(a), b)
    if op is Operator.AND:
        return Not(Bin(Operator.OR, Not(a), Not(b)))
    if op is Operator.IFF:
        return Bin(Operator.AND, Bin(Operator.IMP, a, b), Bin(Operator.IMP, b, a))
    if op is Operator.NOR:
        return Not(Bin(Operator.OR, a, b))
    if op is Operator.NAND:
        return Not(Bin(Operator.AND, a, b))
    if op is Operator.NIMP:
        return Not(Bin(Operator.IMP, a, b))
    if op is Operator.XOR:
        return Not(Bin(Operator.IFF, a, b))
    if op is Operator.UPDOWN:
        return Bin(Operator.IFF, a, b)
    raise ValueError(f"{op.value} is primitive, not defined")


# Operand stand-ins that turn a definiens into a pattern.
_A, _B = Atom("a"), Atom("b")


def match_definiens(op: Operator, f: Formula) -> tuple[Formula, Formula] | None:
    """Recover (a, b) such that ``definiens(op, a, b) == f``, if possible.

    The definiens of ``op`` over two atoms serves as the pattern; each
    atom in it stands for an operand, bound on first sight.
    """
    bound: dict[str, Formula] = {}
    todo = [(definiens(op, _A, _B), f)]
    while todo:
        pattern, node = todo.pop()
        if isinstance(pattern, Atom):
            if bound.setdefault(pattern.name, node) != node:
                return None
        elif isinstance(pattern, Not) and isinstance(node, Not):
            todo.append((pattern.child, node.child))
        elif isinstance(pattern, Bin) and isinstance(node, Bin) and node.op is pattern.op:
            todo += [(pattern.right, node.right), (pattern.left, node.left)]
        else:
            return None
    return bound["a"], bound["b"]


def rewrite(f: Formula, name: Operator, path: Path, direction: Direction) -> Formula:
    """``f`` after one definitional step on ``name`` at ``path``; raises
    ``ValueError`` if the step does not apply, ``PathError`` if ``path``
    selects nothing in ``f``."""
    if name not in DEFINED_OPS:
        raise ValueError(f"{name.value} is primitive, not defined")
    sub = subformula_at(f, path)
    if direction is Direction.UNFOLD:
        if not (isinstance(sub, Bin) and sub.op is name):
            raise ValueError(f"subformula at path is not a {name.value} application")
        new = definiens(name, sub.left, sub.right)
    else:
        operands = match_definiens(name, sub)
        if operands is None:
            raise ValueError(f"subformula at path does not match the {name.value} definition")
        new = Bin(name, *operands)
    return replace_at(f, path, new)
