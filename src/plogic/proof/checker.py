"""Independent proof checker.

Accepts a proof iff every line is an exact axiom instance, a modus
ponens step, or a single definitional rewrite of the line directly above
it.  The major premise of modus ponens may be spelled either
``F imp G`` or ``!F or G``; no other leniency is granted.  The last line
must equal the proof's goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..defs import DEFINED_OPS, definiens, match_definiens
from ..errors import MissingMetavariable, PathError
from ..formula import Bin, Formula, Not, Operator, path_to_str, replace_at, subformula_at
from .axioms import SCHEMA_METAVARS, axiom_instance
from .objects import AxiomJust, DefJust, Direction, MPJust, Proof

NOT_AN_AXIOM_INSTANCE = "NotAnAxiomInstance"
BAD_MP_REFERENCE = "BadMPReference"
MP_SHAPE_MISMATCH = "MPShapeMismatch"
DEF_MISMATCH = "DefMismatch"
GOAL_MISMATCH = "GoalMismatch"
BAD_LINE_INDEX = "BadLineIndex"
UNSUPPORTED_JUSTIFICATION = "UnsupportedJustification"


@dataclass
class CheckResult:
    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


def _major_parts(major: Formula) -> tuple[Formula, Formula] | None:
    """Antecedent and consequent of the major premise, either spelling."""
    if isinstance(major, Bin) and major.op is Operator.IMP:
        return major.left, major.right
    if (
        isinstance(major, Bin)
        and major.op is Operator.OR
        and isinstance(major.left, Not)
    ):
        return major.left.child, major.right
    return None


def check_proof(proof: Proof) -> CheckResult:
    lines = proof.lines
    if not lines:
        return CheckResult(False, None, GOAL_MISMATCH, "proof has no lines")
    for k, line in enumerate(lines, start=1):
        if line.index != k:
            return CheckResult(
                False, k, BAD_LINE_INDEX, f"expected index {k}, found {line.index}"
            )
        just = line.just
        if isinstance(just, AxiomJust):
            subst = just.subst_map()
            try:
                expected = axiom_instance(just.schema, subst)
            except (ValueError, MissingMetavariable) as exc:
                return CheckResult(False, k, NOT_AN_AXIOM_INSTANCE, str(exc))
            metavars = SCHEMA_METAVARS[just.schema]
            if len(subst) > len(metavars):
                return CheckResult(
                    False, k, NOT_AN_AXIOM_INSTANCE,
                    f"AX{just.schema} has only the metavariables {', '.join(metavars)}",
                )
            if expected != line.formula:
                return CheckResult(
                    False, k, NOT_AN_AXIOM_INSTANCE,
                    f"formula is not the stated AX{just.schema} instance",
                )
        elif isinstance(just, MPJust):
            if not (1 <= just.major < k and 1 <= just.minor < k):
                return CheckResult(
                    False, k, BAD_MP_REFERENCE,
                    f"references {just.major},{just.minor} must be earlier lines",
                )
            parts = _major_parts(lines[just.major - 1].formula)
            if parts is None:
                return CheckResult(
                    False, k, MP_SHAPE_MISMATCH,
                    f"line {just.major} is not an implication",
                )
            antecedent, consequent = parts
            if lines[just.minor - 1].formula != antecedent:
                return CheckResult(
                    False, k, MP_SHAPE_MISMATCH,
                    f"line {just.minor} does not match the antecedent of line {just.major}",
                )
            if line.formula != consequent:
                return CheckResult(
                    False, k, MP_SHAPE_MISMATCH,
                    "formula does not match the consequent of the major premise",
                )
        elif isinstance(just, DefJust):
            if k == 1:
                return CheckResult(
                    False, k, DEF_MISMATCH, "no preceding line to rewrite"
                )
            if just.name not in DEFINED_OPS:
                return CheckResult(
                    False, k, DEF_MISMATCH, f"{just.name.value} is primitive, not defined"
                )
            source = lines[k - 2].formula
            try:
                sub = subformula_at(source, just.path)
            except PathError:
                return CheckResult(
                    False, k, DEF_MISMATCH,
                    f"path {path_to_str(just.path) or '.'} not valid in line {k - 1}",
                )
            if just.direction is Direction.UNFOLD:
                if not (isinstance(sub, Bin) and sub.op is just.name):
                    return CheckResult(
                        False, k, DEF_MISMATCH,
                        f"subformula at path is not a {just.name.value} application",
                    )
                rewritten = definiens(just.name, sub.left, sub.right)
            else:
                operands = match_definiens(just.name, sub)
                if operands is None:
                    return CheckResult(
                        False, k, DEF_MISMATCH,
                        f"subformula at path does not match the {just.name.value} definition",
                    )
                rewritten = Bin(just.name, operands[0], operands[1])
            if replace_at(source, just.path, rewritten) != line.formula:
                return CheckResult(
                    False, k, DEF_MISMATCH,
                    "formula is not the stated rewrite of the preceding line",
                )
        else:
            return CheckResult(
                False, k, UNSUPPORTED_JUSTIFICATION,
                "justification is not AX, MP or DEF",
            )
    if lines[-1].formula != proof.goal:
        return CheckResult(
            False, len(lines), GOAL_MISMATCH, "last line does not equal the goal"
        )
    return CheckResult(True)
