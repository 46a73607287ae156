"""Independent proof checker.

Accepts a proof iff every line is an exact axiom instance, a modus
ponens step, or a single definitional rewrite of the line directly above
it.  The major premise of modus ponens may be spelled either
``F imp G`` or ``!F or G``; no other leniency is granted.  The last line
must equal the proof's goal.

``replay`` alone decides what a justification derives, and a ``Judge``
alone compares each line with it.  The loader judges each line as it
reads it; ``check_proof`` takes a loaded proof's verdict from that Judge
while the proof holds exactly the lines it took, and else runs a new
Judge.  The checker never imports the generator or the loader; it and
the generator take their rules from ``proof/axioms.py`` and ``defs.py``,
which the tests' oracle judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
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


def replay(k: int, just: Justification, formulas: Sequence[Formula]) -> Formula | CheckResult:
    """The formula that line ``k``'s justification ``just`` derives from the
    formulas ``formulas[:k - 1]`` of the lines above, or the rejection of
    line ``k``; never raises."""
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
        parts = major_parts(formulas[just.major - 1])
        if parts is None:
            return CheckResult(
                False, k, MP_SHAPE_MISMATCH,
                f"line {just.major} is not an implication",
            )
        antecedent, consequent = parts
        if formulas[just.minor - 1] != antecedent:
            return CheckResult(
                False, k, MP_SHAPE_MISMATCH,
                f"line {just.minor} does not match the antecedent of line {just.major}",
            )
        return consequent
    if isinstance(just, DefJust):
        if k == 1:
            return CheckResult(False, k, DEF_MISMATCH, "no preceding line to rewrite")
        try:
            return rewrite(formulas[k - 2], just.name, just.path, just.direction)
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


_INDEX, _FORMULA, _JUST = attrgetter("index"), attrgetter("formula"), attrgetter("just")


class Judge:
    """Judges a proof's lines in order, one ``take`` per line, and keeps
    the first rejection.  ``derive`` tells a caller what the next line's
    justification derives before the line is built; ``take`` then reuses
    that replay instead of making another."""

    def __init__(self):
        # The formula of each line taken, and the index and justification of
        # each up to the first rejection, as taken.
        self.indices: list[int] = []
        self.formulas: list[Formula] = []
        self.justs: list[Justification] = []
        self.rejection: Optional[CheckResult] = None
        self._derived_for: Optional[Justification] = None
        self._derived: Formula | CheckResult | None = None

    def derive(self, just: Justification) -> Formula | CheckResult:
        """What ``just`` derives as the next line, from the lines taken."""
        self._derived_for = just
        self._derived = replay(len(self.formulas) + 1, just, self.formulas)
        return self._derived

    def take(self, line: ProofLine) -> None:
        """Judge ``line`` as the next line, unless an earlier one was rejected."""
        index, formula, just = line.index, line.formula, line.just
        formulas = self.formulas
        k = len(formulas) + 1
        if self.rejection is None:
            self.indices.append(index)
            self.justs.append(just)
            if index != k:
                self.rejection = CheckResult(
                    False, k, BAD_LINE_INDEX, f"expected index {k}, found {index}"
                )
            else:
                derived = self._derived if just is self._derived_for else replay(k, just, formulas)
                if isinstance(derived, CheckResult):
                    self.rejection = derived
                elif derived != formula:
                    reason, detail = next(v for t, v in _MISMATCH.items() if isinstance(just, t))
                    self.rejection = CheckResult(False, k, reason, detail.format(just))
        self._derived_for = self._derived = None
        formulas.append(formula)

    def judged(self, lines: Sequence[ProofLine]) -> bool:
        """Whether ``lines`` hold, in order, the formula objects of the lines
        taken, and the index and justification objects of those up to the
        first rejection, on which alone the verdict depends."""
        return (
            len(lines) == len(self.formulas)
            and all(map(is_, map(_INDEX, lines), self.indices))
            and all(map(is_, map(_FORMULA, lines), self.formulas))
            and all(map(is_, map(_JUST, lines), self.justs))
        )

    def result(self, goal: Formula) -> CheckResult:
        """The verdict on the lines taken as a proof of ``goal``."""
        if self.rejection is not None:
            return self.rejection
        if not self.formulas:
            return CheckResult(False, None, GOAL_MISMATCH, "proof has no lines")
        if self.formulas[-1] != goal:
            return CheckResult(
                False, len(self.formulas), GOAL_MISMATCH, "last line does not equal the goal"
            )
        return CheckResult(True)


def check_proof(proof: Proof) -> CheckResult:
    """The verdict on ``proof``: from the Judge that loaded it while it still
    holds the lines that Judge took, else from a new Judge."""
    judge = proof.judge
    if judge is None or not judge.judged(proof.lines):
        judge = Judge()
        for line in proof.lines:
            judge.take(line)
            if judge.rejection is not None:
                break
    return judge.result(proof.goal)
