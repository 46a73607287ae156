"""Reversible formula rewrites.

``upsilon_encrypt`` deletes negations that guard a nor/nand-rooted
operand of a negated-family connective, recording where each deletion
happened so ``upsilon_decrypt`` can restore the original exactly.  The
deletion changes the interpretation of the formula, so it is treated
strictly as reversible notation, never as an equivalence.

``psi_apply`` swaps a root xor for xiff (and ``psi_invert`` swaps it
back), which flips the final analysis.  ``desugar`` expands every
negated-family connective into its fundamental definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .defs import definiens
from .errors import NotUpdownRoot, NotXorRoot
from .formula import (
    Bin,
    Formula,
    Not,
    OpClass,
    Operator,
    Path,
    Step,
    replace_at,
    subformula_at,
)

# A deletable negation must guard a nor/nand application and itself sit
# directly under one of these connectives.
_HOST_OPS = frozenset(
    [Operator.NOR, Operator.NAND, Operator.XOR, Operator.UPDOWN]
)
_GUARDED_OPS = frozenset([Operator.NOR, Operator.NAND])


@dataclass(frozen=True)
class EncryptionTrace:
    """Positions (in the output formula) where a negation was removed."""

    removed_negations: tuple[Path, ...] = field(default_factory=tuple)


def _removable(node: Formula) -> bool:
    return (
        isinstance(node, Not)
        and isinstance(node.child, Bin)
        and node.child.op in _GUARDED_OPS
    )


def upsilon_encrypt(f: Formula) -> tuple[Formula, EncryptionTrace]:
    """Delete every eligible negation, preorder, recording positions."""
    removed: list[Path] = []

    def operand(node: Formula, path: Path, host: bool) -> Formula:
        if host and _removable(node):
            removed.append(path)
            node = node.child  # type: ignore[union-attr]
        return walk(node, path)

    def walk(node: Formula, path: Path) -> Formula:
        if isinstance(node, Not):
            return Not(walk(node.child, path + (Step.CHILD,)))
        if isinstance(node, Bin):
            host = node.op in _HOST_OPS
            left = operand(node.left, path + (Step.LEFT,), host)
            right = operand(node.right, path + (Step.RIGHT,), host)
            return Bin(node.op, left, right)
        return node

    out = walk(f, ())
    return out, EncryptionTrace(tuple(removed))


def upsilon_decrypt(f: Formula, trace: EncryptionTrace) -> Formula:
    """Reinsert the deleted negations; inverse of ``upsilon_encrypt``."""
    out = f
    for path in reversed(trace.removed_negations):
        out = replace_at(out, path, Not(subformula_at(out, path)))
    return out


def psi_apply(f: Formula) -> Formula:
    if not (isinstance(f, Bin) and f.op is Operator.XOR):
        raise NotXorRoot("root connective is not xor")
    return Bin(Operator.UPDOWN, f.left, f.right)


def psi_invert(f: Formula) -> Formula:
    if not (isinstance(f, Bin) and f.op is Operator.UPDOWN):
        raise NotUpdownRoot("root connective is not xiff")
    return Bin(Operator.XOR, f.left, f.right)


def desugar(f: Formula) -> Formula:
    """Rewrite every negated-family connective into fundamental form."""
    if isinstance(f, Not):
        return Not(desugar(f.child))
    if isinstance(f, Bin):
        left = desugar(f.left)
        right = desugar(f.right)
        if f.op.op_class is OpClass.NFO:
            return definiens(f.op, left, right)
        return Bin(f.op, left, right)
    return f
