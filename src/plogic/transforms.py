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
    map_at,
    subformulas,
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


def upsilon_encrypt(f: Formula) -> tuple[Formula, EncryptionTrace]:
    """Delete every eligible negation, preorder, recording positions."""
    removed: list[Path] = []
    # (occurrence, its path in the output, sits directly under a host)
    stack = [(f, (), False)]
    while stack:
        node, path, host = stack.pop()
        guarded = node.child if isinstance(node, Not) else None
        if host and isinstance(guarded, Bin) and guarded.op in _GUARDED_OPS:
            removed.append(path)
            node = guarded
        if isinstance(node, Not):
            stack.append((node.child, path + (Step.CHILD,), False))
        elif isinstance(node, Bin):
            host = node.op in _HOST_OPS
            stack.append((node.right, path + (Step.RIGHT,), host))
            stack.append((node.left, path + (Step.LEFT,), host))
    out = f  # the removals in order, as upsilon_decrypt undoes them in reverse
    for path in removed:
        out = map_at(out, path, lambda node: node.child)
    return out, EncryptionTrace(tuple(removed))


def upsilon_decrypt(f: Formula, trace: EncryptionTrace) -> Formula:
    """Reinsert the deleted negations; inverse of ``upsilon_encrypt``."""
    out = f
    for path in reversed(trace.removed_negations):
        out = map_at(out, path, Not)
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
    out: dict[Formula, Formula] = {}
    for node in subformulas(f):
        if isinstance(node, Not):
            out[node] = Not(out[node.child])
        elif isinstance(node, Bin):
            rebuild = definiens if node.op.op_class is OpClass.NFO else Bin
            out[node] = rebuild(node.op, out[node.left], out[node.right])
        else:
            out[node] = node
    return out[f]
