"""The four axiom schemas of the disjunction/negation calculus.

    AX1  (A or A) imp A
    AX2  A imp (A or B)
    AX3  (A or B) imp (B or A)
    AX4  (B imp C) imp ((A or B) imp (A or C))

Instances are spelled with ``imp`` nodes; ``x imp y`` is one DEF step
away from its primitive form ``!x or y``.  The prover builds its AX and
MP lines, and the checker replays them, with these functions.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import MissingMetavariable
from ..formula import Bin, Formula, Not, Operator

SCHEMA_METAVARS: dict[int, tuple[str, ...]] = {
    1: ("A",),
    2: ("A", "B"),
    3: ("A", "B"),
    4: ("A", "B", "C"),
}


def axiom_instance(schema: int, subst: Mapping[str, Formula]) -> Formula:
    if schema not in SCHEMA_METAVARS:
        raise ValueError(f"no axiom schema {schema}")
    for var in SCHEMA_METAVARS[schema]:
        if var not in subst:
            raise MissingMetavariable(var, schema)
    a = subst.get("A")
    b = subst.get("B")
    c = subst.get("C")
    imp = lambda x, y: Bin(Operator.IMP, x, y)
    disj = lambda x, y: Bin(Operator.OR, x, y)
    if schema == 1:
        return imp(disj(a, a), a)
    if schema == 2:
        return imp(a, disj(a, b))
    if schema == 3:
        return imp(disj(a, b), disj(b, a))
    return imp(imp(b, c), imp(disj(a, b), disj(a, c)))


def major_parts(major: Formula) -> tuple[Formula, Formula] | None:
    """Antecedent and consequent of the major premise, either spelling."""
    if isinstance(major, Bin):
        if major.op is Operator.IMP:
            return major.left, major.right
        if major.op is Operator.OR and isinstance(major.left, Not):
            return major.left.child, major.right
    return None
