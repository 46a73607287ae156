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
every DEF line with it.  A FOLD reads the two operands at their first
places in the definiens (read off ``definiens`` over two atoms at import),
and accepts only if the definiens over them is the subformula itself:
formulas are hash-consed, so identity is structural equality.
"""

from __future__ import annotations

import enum
from operator import attrgetter

from .formula import Atom, Bin, Formula, Not, Operator, Path, map_at

# The definition table: each defined connective's definiens over (a, b).
_DEFINIENS = {
    Operator.IMP: lambda a, b: Bin(Operator.OR, Not(a), b),
    Operator.AND: lambda a, b: Not(Bin(Operator.OR, Not(a), Not(b))),
    Operator.IFF: lambda a, b: Bin(Operator.AND, Bin(Operator.IMP, a, b), Bin(Operator.IMP, b, a)),
    Operator.NOR: lambda a, b: Not(Bin(Operator.OR, a, b)),
    Operator.NAND: lambda a, b: Not(Bin(Operator.AND, a, b)),
    Operator.NIMP: lambda a, b: Not(Bin(Operator.IMP, a, b)),
    Operator.XOR: lambda a, b: Not(Bin(Operator.IFF, a, b)),
    Operator.UPDOWN: lambda a, b: Bin(Operator.IFF, a, b),
}
DEFINED_OPS = tuple(_DEFINIENS)


class Direction(enum.Enum):
    UNFOLD = "UNFOLD"
    FOLD = "FOLD"


def definiens(op: Operator, a: Formula, b: Formula) -> Formula:
    """Right-hand side of the definition of ``op`` applied to (a, b)."""
    build = _DEFINIENS.get(op)
    if build is None:
        raise ValueError(f"{op.value} is primitive, not defined")
    return build(a, b)


def _operand_places(pattern: Formula) -> attrgetter:
    """A getter of the nodes at the first places of the atoms a and b in
    ``pattern``, each place spelled as dotted attributes."""
    places, todo = {}, [(pattern, "")]
    while todo:
        node, place = todo.pop()
        if isinstance(node, Atom):
            places.setdefault(node.name, place[1:])
        else:  # right before left, so that the left pops first
            todo += [(getattr(node, k), f"{place}.{k}") for k in ("right", "left", "child") if hasattr(node, k)]
    return attrgetter(places["a"], places["b"])


_OPERANDS = {op: _operand_places(definiens(op, Atom("a"), Atom("b"))) for op in DEFINED_OPS}


def match_definiens(op: Operator, f: Formula) -> tuple[Formula, Formula] | None:
    """Recover (a, b) such that ``definiens(op, a, b) is f``, if possible;
    None for any ``f`` of another shape."""
    operands = _OPERANDS.get(op)
    if operands is None:
        raise ValueError(f"{op.value} is primitive, not defined")
    try:
        a, b = operands(f)
    except AttributeError:  # f has no node at one of the places
        return None
    return (a, b) if definiens(op, a, b) is f else None


def rewrite(f: Formula, name: Operator, path: Path, direction: Direction) -> Formula:
    """``f`` after one definitional step on ``name`` at ``path``; raises
    ``ValueError`` if the step does not apply, ``PathError`` if ``path``
    selects nothing in ``f``."""
    if name not in _DEFINIENS:
        raise ValueError(f"{name.value} is primitive, not defined")

    def step(sub: Formula) -> Formula:
        if direction is Direction.UNFOLD:
            if not (isinstance(sub, Bin) and sub.op is name):
                raise ValueError(f"subformula at path is not a {name.value} application")
            return definiens(name, sub.left, sub.right)
        operands = match_definiens(name, sub)
        if operands is None:
            raise ValueError(f"subformula at path does not match the {name.value} definition")
        return Bin(name, *operands)

    return map_at(f, path, step)
