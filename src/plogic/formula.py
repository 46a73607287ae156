"""Immutable formula trees over two families of binary connectives.

The fundamental family is ``or``, ``and``, ``imp``, ``iff``; each has a
negated counterpart (``nor``, ``nand``, ``nimp``, ``xor``).  A ninth
connective, ``xiff``, is the replacement operator produced by the
xor-root rewrite; it carries the truth table of ``iff`` but is classed
with the negated family so rewritten formulas stay inside that language.

Everything here is a pure value: formulas are frozen dataclasses and all
operations return new trees, so sharing across threads is safe.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Union

from .errors import NoDual, PathError


class OpClass(enum.Enum):
    FO = "fundamental"
    NFO = "non-fundamental"


class Operator(enum.Enum):
    OR = "or"
    AND = "and"
    IMP = "imp"
    IFF = "iff"
    NOR = "nor"
    NAND = "nand"
    NIMP = "nimp"
    XOR = "xor"
    UPDOWN = "xiff"

    @property
    def op_class(self) -> OpClass:
        if self in (Operator.OR, Operator.AND, Operator.IMP, Operator.IFF):
            return OpClass.FO
        return OpClass.NFO


_DUALS = {
    Operator.OR: Operator.NOR,
    Operator.NOR: Operator.OR,
    Operator.AND: Operator.NAND,
    Operator.NAND: Operator.AND,
    Operator.IMP: Operator.NIMP,
    Operator.NIMP: Operator.IMP,
    Operator.IFF: Operator.XOR,
    Operator.XOR: Operator.IFF,
}


def dual(op: Operator) -> Operator:
    """Partner of ``op`` in the fundamental/negated pairing."""
    if op is Operator.UPDOWN:
        raise NoDual("xiff has no partner in the duality pairing")
    return _DUALS[op]


# Words the concrete syntax reserves; atom names must avoid them so that
# rendering and re-parsing a formula is the identity.
RESERVED_WORDS = frozenset(["not", *(op.value for op in Operator)])

ATOM_PATTERN = "[A-Za-z][A-Za-z0-9]*"
_ATOM_RE = re.compile(ATOM_PATTERN + r"\Z")


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self):
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"invalid atom name {self.name!r}")
        if self.name in RESERVED_WORDS:
            raise ValueError(f"atom name {self.name!r} is a reserved word")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class Bin:
    op: Operator
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, Bin]


class Step(enum.Enum):
    LEFT = "L"
    RIGHT = "R"
    CHILD = "C"


Path = tuple[Step, ...]


def path_to_str(path: Path) -> str:
    return "".join(step.value for step in path)


def path_from_str(text: str) -> Path:
    try:
        return tuple(Step(ch) for ch in text)
    except ValueError:
        raise PathError(f"invalid path string {text!r}") from None


class Language(enum.Enum):
    FO_ONLY = "FO_ONLY"
    NFO_ONLY = "NFO_ONLY"
    MIXED = "MIXED"
    ATOMIC = "ATOMIC"


def language_of(f: Formula) -> Language:
    """Classify ``f`` by the family of its binary connectives.

    Negation and grouping never affect the class; a formula without any
    binary connective is ATOMIC.
    """
    seen_fo = False
    seen_nfo = False
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, Bin):
            if node.op.op_class is OpClass.FO:
                seen_fo = True
            else:
                seen_nfo = True
            stack.append(node.right)
            stack.append(node.left)
    if seen_fo and seen_nfo:
        return Language.MIXED
    if seen_fo:
        return Language.FO_ONLY
    if seen_nfo:
        return Language.NFO_ONLY
    return Language.ATOMIC


def atoms_of(f: Formula) -> list[str]:
    """Distinct atom names in order of first occurrence, left to right."""
    seen: dict[str, None] = {}
    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            seen.setdefault(node.name, None)
        elif isinstance(node, Not):
            walk(node.child)
        else:
            walk(node.left)
            walk(node.right)
    walk(f)
    return list(seen)


def subformula_at(f: Formula, path: Path) -> Formula:
    node = f
    for i, step in enumerate(path):
        if step is Step.CHILD and isinstance(node, Not):
            node = node.child
        elif step is Step.LEFT and isinstance(node, Bin):
            node = node.left
        elif step is Step.RIGHT and isinstance(node, Bin):
            node = node.right
        else:
            raise PathError(
                f"step {step.value} not applicable at position {path_to_str(path[:i])!r}"
            )
    return node


def replace_at(f: Formula, path: Path, g: Formula) -> Formula:
    """Functionally replace the subformula occurrence at ``path`` with ``g``."""
    if not path:
        return g
    step, rest = path[0], path[1:]
    if step is Step.CHILD and isinstance(f, Not):
        return Not(replace_at(f.child, rest, g))
    if step is Step.LEFT and isinstance(f, Bin):
        return Bin(f.op, replace_at(f.left, rest, g), f.right)
    if step is Step.RIGHT and isinstance(f, Bin):
        return Bin(f.op, f.left, replace_at(f.right, rest, g))
    raise PathError(f"step {step.value} not applicable")
