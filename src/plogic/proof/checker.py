"""Independent proof checker.

Accepts a proof iff every line is an exact axiom instance, a modus
ponens step, or a single definitional rewrite of the line directly above
it.  The major premise of modus ponens may be spelled either
``F imp G`` or ``!F or G``; no other leniency is granted.  The last line
must equal the proof's goal.

``replay`` alone decides what a justification derives; ``check_proof``
compares each line with it, and the loader uses it only as a cache.  The
checker never imports the generator or the loader; it and the generator
take their rules from ``proof/axioms.py`` and ``defs.py``, which the
tests' oracle judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

# definiens and match_definiens stay bound for perfbench/spans.py, which wraps them
from ..defs import definiens, match_definiens, rewrite  # noqa: F401
from ..errors import MissingMetavariable, PathError
from ..formula import Formula, path_to_str
from .axioms import SCHEMA_METAVARS, axiom_instance, major_parts
from .objects import AxiomJust, DefJust, Justification, MPJust, Proof, ProofLine

NOT_AN_AXIOM_INSTANCE = "NotAnAxiomInstance"
BAD_MP_REFERENCE = "BadMPReference"
MP_SHAPE_MISMATCH = "MPShapeMismatch"
DEF_MISMATCH = "DefMismatch"
GOAL_MISMATCH = "GoalMismatch"
BAD_LINE_INDEX = "BadLineIndex"
UNSUPPORTED_JUSTIFICATION = "UnsupportedJustification"

# The reason and detail for a line that is not what its justification derives.
_MISMATCH = {
    AxiomJust: (NOT_AN_AXIOM_INSTANCE, "formula is not the stated AX{.schema} instance"),
    MPJust: (MP_SHAPE_MISMATCH, "formula does not match the consequent of the major premise"),
    DefJust: (DEF_MISMATCH, "formula is not the stated rewrite of the preceding line"),
}


@dataclass
class CheckResult:
    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


def replay(k: int, just: Justification, lines: Sequence[ProofLine]) -> Formula | CheckResult:
    """The formula that line ``k``'s justification ``just`` derives from
    ``lines[:k - 1]``, or the rejection of line ``k``; never raises."""
    if isinstance(just, AxiomJust):
        subst = just.subst_map()
        try:
            instance = axiom_instance(just.schema, subst)
        except (ValueError, MissingMetavariable) as exc:
            return CheckResult(False, k, NOT_AN_AXIOM_INSTANCE, str(exc))
        metavars = SCHEMA_METAVARS[just.schema]
        if len(subst) > len(metavars):
            return CheckResult(
                False, k, NOT_AN_AXIOM_INSTANCE,
                f"AX{just.schema} has only the metavariables {', '.join(metavars)}",
            )
        return instance
    if isinstance(just, MPJust):
        if not (1 <= just.major < k and 1 <= just.minor < k):
            return CheckResult(
                False, k, BAD_MP_REFERENCE,
                f"references {just.major},{just.minor} must be earlier lines",
            )
        parts = major_parts(lines[just.major - 1].formula)
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
        return consequent
    if isinstance(just, DefJust):
        if k == 1:
            return CheckResult(False, k, DEF_MISMATCH, "no preceding line to rewrite")
        try:
            return rewrite(lines[k - 2].formula, just.name, just.path, just.direction)
        except PathError:
            return CheckResult(
                False, k, DEF_MISMATCH,
                f"path {path_to_str(just.path) or '.'} not valid in line {k - 1}",
            )
        except ValueError as exc:
            return CheckResult(False, k, DEF_MISMATCH, str(exc))
    return CheckResult(
        False, k, UNSUPPORTED_JUSTIFICATION,
        "justification is not AX, MP or DEF",
    )


def check_proof(proof: Proof) -> CheckResult:
    lines = proof.lines
    if not lines:
        return CheckResult(False, None, GOAL_MISMATCH, "proof has no lines")
    for k, line in enumerate(lines, start=1):
        if line.index != k:
            return CheckResult(
                False, k, BAD_LINE_INDEX, f"expected index {k}, found {line.index}"
            )
        derived = replay(k, line.just, lines)
        if isinstance(derived, CheckResult):
            return derived
        if derived != line.formula:
            reason, detail = next(v for t, v in _MISMATCH.items() if isinstance(line.just, t))
            return CheckResult(False, k, reason, detail.format(line.just))
    if lines[-1].formula != proof.goal:
        return CheckResult(
            False, len(lines), GOAL_MISMATCH, "last line does not equal the goal"
        )
    return CheckResult(True)
