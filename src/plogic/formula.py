"""Immutable formula trees over two families of binary connectives.

The fundamental family is ``or``, ``and``, ``imp``, ``iff``; each has a
negated counterpart (``nor``, ``nand``, ``nimp``, ``xor``).  A ninth
connective, ``xiff``, is the replacement operator produced by the
xor-root rewrite; it carries the truth table of ``iff`` but is classed
with the negated family so rewritten formulas stay inside that language.

Formulas are hash-consed (Filliâtre & Conchon, *Type-Safe Modular
Hash-Consing*, 2006): each constructor returns the one live node for its
arguments, building it only if there is none, so structurally equal
formulas are the same object.  ``==`` and ``hash`` are therefore the
identity ones, O(1) at any depth.  Nodes are immutable and the intern
table is safe to use from several threads; a node that nothing refers
to leaves the table.  All operations return new formulas.
A ``Path`` names one occurrence of a subformula; ``map_at`` rebuilds a
formula around a function of it in one walk, ``replace_at`` around a constant.
"""

from __future__ import annotations

import enum
import re
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Union

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

    # Members are singletons compared by identity: hash them by identity
    # too, in C, so that a dict keyed by operators (the intern table's Bin
    # keys among them) runs no Python-level __hash__.
    __hash__ = object.__hash__

    @property
    def op_class(self) -> OpClass:
        return _OP_CLASS[self]


# The family of each operator; xiff is classed with the negated one.
_OP_CLASS = {
    op: OpClass.FO if op in (Operator.OR, Operator.AND, Operator.IMP, Operator.IFF)
    else OpClass.NFO
    for op in Operator
}


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


# The intern table: one weak reference per live node.  An Atom's key is
# its name (a str), a Not's the id of its child (an int) and a Bin's the
# tuple (operator, left, right), so keys of different kinds never compare
# equal.  Hashing and comparing a key run no Python code (nodes and
# operators hash by identity), which makes each dict operation on the
# table atomic.  A live node keeps its child alive, so a Not key's id
# stays unique.
#
# The table takes no lock: a key is only ever inserted where it is absent
# (dict.setdefault) and deleted where its entry is dead
# (_remove_dead_weakref, the primitive WeakValueDictionary uses), so a
# thread can neither evict a live node nor overwrite one.
_table: dict = {}
_new = object.__new__


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _evict(ref: _Ref) -> None:
    """Weak-reference callback: drop a dead node's entry, unless a new
    node has taken its key since."""
    _remove_dead_weakref(_table, ref.key)


def _intern(key, node):
    """Insert ``node`` where ``key`` is free or dead; return the node there."""
    ref = _Ref(node, _evict)
    ref.key = key
    while True:
        old = _table.setdefault(key, ref)
        if old is ref:
            return node
        live = old()
        if live is not None:
            return live
        _remove_dead_weakref(_table, key)


class _Node:
    """Interned and immutable: equality and hashing are by identity, a copy
    is the node itself, and repr and pickle take any depth."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        from .parser import render  # here, as the parser imports this module
        return f"parse({render(self)!r})"

    def __reduce__(self):
        # The subformulas list, one entry per distinct node: its class and
        # its fields, each child given by its place in the list.
        nodes = subformulas(self)
        place = {node: i for i, node in enumerate(nodes)}
        return _rebuild, ([
            (Atom, node.name) if isinstance(node, Atom)
            else (Not, place[node.child]) if isinstance(node, Not)
            else (Bin, node.op, place[node.left], place[node.right])
            for node in nodes
        ],)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__


class Atom(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> Atom:
        # Only a str name is looked up, so no other key can match it.
        ref = _table.get(name) if name.__class__ is str else None
        if ref is not None and (node := ref()) is not None:
            return node
        if not _ATOM_RE.match(name):
            raise ValueError(f"invalid atom name {name!r}")
        if name in RESERVED_WORDS:
            raise ValueError(f"atom name {name!r} is a reserved word")
        node = _new(cls)
        _atom_name(node, name)
        return _intern(name, node)


class Not(_Node):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __new__(cls, child: Formula) -> Not:
        key = id(child)
        ref = _table.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _not_child(node, child)
        return _intern(key, node)


class Bin(_Node):
    __slots__ = ("op", "left", "right")
    __match_args__ = ("op", "left", "right")

    def __new__(cls, op: Operator, left: Formula, right: Formula) -> Bin:
        key = (op, left, right)
        ref = _table.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _bin_op(node, op)
        _bin_left(node, left)
        _bin_right(node, right)
        return _intern(key, node)


Formula = Union[Atom, Not, Bin]

# Slot setters for the constructors, past the classes' __setattr__.
_atom_name = Atom.name.__set__
_not_child = Not.child.__set__
_bin_op, _bin_left, _bin_right = Bin.op.__set__, Bin.left.__set__, Bin.right.__set__


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


def subformulas(f: Formula) -> list[Formula]:
    """Each distinct subformula of ``f`` once, children before parents and
    left before right, so ``f`` itself comes last.

    One loop over an explicit stack: any nesting depth costs only memory,
    and a node shared by several parents is visited once.
    """
    done: dict[Formula, None] = {}
    stack: list = [f]
    while stack:
        node = stack.pop()
        if node is None:  # the node beneath has its children done
            done[stack.pop()] = None
        elif isinstance(node, Atom):
            done[node] = None
        elif node not in done:
            if isinstance(node, Not):
                stack += (node, None, node.child)
            else:
                stack += (node, None, node.right, node.left)
    return list(done)


def _rebuild(entries: list) -> Formula:
    """The formula that ``_Node.__reduce__`` wrote as ``entries``."""
    nodes: list[Formula] = []
    for cls, *fields in entries:
        nodes.append(cls(*[nodes[x] if type(x) is int else x for x in fields]))
    return nodes[-1]


def language_of(f: Formula, nodes: list[Formula] | None = None) -> Language:
    """Classify ``f`` by the family of its binary connectives.

    Negation and grouping never affect the class; a formula without any
    binary connective is ATOMIC.  ``nodes``, when given, is
    ``subformulas(f)``, so ``f`` is not walked.
    """
    if nodes is None:
        nodes = subformulas(f)
    classes = {_OP_CLASS[node.op] for node in nodes if type(node) is Bin}
    if len(classes) == 2:
        return Language.MIXED
    if OpClass.FO in classes:
        return Language.FO_ONLY
    if OpClass.NFO in classes:
        return Language.NFO_ONLY
    return Language.ATOMIC


def atoms_of(f: Formula) -> list[str]:
    """Distinct atom names in order of first occurrence, left to right."""
    return [node.name for node in subformulas(f) if isinstance(node, Atom)]


_FIELD = {Step.LEFT: "left", Step.RIGHT: "right", Step.CHILD: "child"}


def _trail(f: Formula, path: Path) -> list[Formula]:
    """The nodes ``path`` passes through from ``f``, its target last."""
    trail = [f]
    for i, step in enumerate(path):
        node = getattr(trail[-1], _FIELD[step], None)
        if node is None:
            raise PathError(
                f"step {step.value} not applicable at position {path_to_str(path[:i])!r}"
            )
        trail.append(node)
    return trail


def subformula_at(f: Formula, path: Path) -> Formula:
    return _trail(f, path)[-1]


def map_at(f: Formula, path: Path, fn: Callable[[Formula], Formula]) -> Formula:
    """``f`` with the subformula ``s`` at ``path`` replaced by ``fn(s)``: one
    walk down ``path``, then back up it rebuilding each node passed.  Raises
    ``PathError``, before ``fn`` is called, if ``path`` selects nothing."""
    trail = _trail(f, path)
    g = fn(trail[-1])
    for step, node in zip(reversed(path), trail[-2::-1]):
        if step is Step.CHILD:
            g = Not(g)
        elif step is Step.LEFT:
            g = Bin(node.op, g, node.right)
        else:
            g = Bin(node.op, node.left, g)
    return g


def replace_at(f: Formula, path: Path, g: Formula) -> Formula:
    """Functionally replace the subformula occurrence at ``path`` with ``g``."""
    return map_at(f, path, lambda _: g)
