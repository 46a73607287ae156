"""Concrete syntax: parsing and rendering of formulas.

Two dialects share one grammar.  The unicode dialect uses the glyphs
``¬ ∨ ∧ → ↔ ↓ ↑ ← ⊕ ↕``; the ascii dialect uses ``!``/``not``, ``or``,
``and``, ``->``/``imp``, ``<->``/``iff``, ``nor``, ``nand``, ``nimp``,
``xor`` and ``xiff``.  Binary connectives have no precedence and no
associativity: an unparenthesized ``a op b op c`` is rejected rather than
grouped.  A single outermost pair of parentheses may be omitted.
"""

from __future__ import annotations

import enum
import re

from .errors import (
    AmbiguousChain,
    EmptyInput,
    UnbalancedParens,
    UnexpectedToken,
    UnknownToken,
)
from .formula import ATOM_PATTERN, RESERVED_WORDS, Atom, Bin, Formula, Not, Operator


class Dialect(enum.Enum):
    UNICODE = "unicode"
    ASCII = "ascii"

    __hash__ = object.__hash__  # as Operator's: no Python-level hash per lookup


# What render writes, per dialect; parse accepts both dialects.
_OPS = {
    Dialect.UNICODE: {
        Operator.OR: "∨",
        Operator.AND: "∧",
        Operator.IMP: "→",
        Operator.IFF: "↔",
        Operator.NOR: "↓",
        Operator.NAND: "↑",
        Operator.NIMP: "←",
        Operator.XOR: "⊕",
        Operator.UPDOWN: "↕",
    },
    Dialect.ASCII: {op: op.value for op in Operator},
}
_NEG = {Dialect.UNICODE: "¬", Dialect.ASCII: "!"}
_INFIX = {d: {op: f" {s} " for op, s in ops.items()} for d, ops in _OPS.items()}


# Every accepted spelling and what it stands for: an Operator, the Not
# constructor, or a parenthesis.
_TOKENS = {
    **{s: op for ops in _OPS.values() for op, s in ops.items()},
    "->": Operator.IMP,
    "<->": Operator.IFF,
    **dict.fromkeys([*_NEG.values(), "not"], Not),
    "(": "(",
    ")": ")",
}

# Words are atoms unless reserved.  Symbols are tried longest first, so a
# shorter spelling never shadows a longer one it prefixes.  Any other
# non-space character is unknown.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<word>%s)|(?P<symbol>%s)|(?P<other>\S))"
    % (
        ATOM_PATTERN,
        "|".join(
            re.escape(s)
            for s in sorted(_TOKENS.keys() - RESERVED_WORDS, key=len, reverse=True)
        ),
    )
)


def _tokenize(text: str) -> list[tuple]:
    """(meaning, spelling, position) per token, ending with (None, "", len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        spelling = m[kind]
        pos = m.start(kind)
        if kind == "other":
            raise UnknownToken(f"unknown token {spelling!r} at position {pos}", pos)
        if kind == "word" and spelling not in RESERVED_WORDS:
            tokens.append((Atom(spelling), spelling, pos))
        else:
            tokens.append((_TOKENS[spelling], spelling, pos))
    tokens.append((None, "", len(text)))
    return tokens


def parse(text: str) -> Formula:
    """Parse a formula in either dialect; whitespace is insignificant.

    One pass over the tokens with an explicit stack, so nesting depth is
    bounded only by memory.  Each open parenthesis saves the enclosing
    expression's pending negations, left operand and operator.
    """
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise EmptyInput("empty input")
    stack: list[tuple[int, Formula | None, Operator | None]] = []
    negations, left, op = 0, None, None
    i = 0
    while True:
        # expecting a unit: negations, then an atom or an open parenthesis
        tok, spelling, pos = tokens[i]
        i += 1
        if tok is Not:
            negations += 1
            continue
        if tok == "(":
            stack.append((negations, left, op))
            negations, left, op = 0, None, None
            continue
        if not isinstance(tok, Atom):
            if tok == ")":
                raise UnbalancedParens(f"unmatched ')' at position {pos}", pos)
            raise UnexpectedToken(f"expected a formula at position {pos}", pos)
        f: Formula = tok
        while True:
            # f is a complete unit; finish the expression it ends, if any
            while negations:
                f = Not(f)
                negations -= 1
            tok, spelling, pos = tokens[i]
            if isinstance(tok, Operator):
                if op is not None:
                    raise AmbiguousChain(
                        f"operator chain is ambiguous at position {pos}; "
                        "parenthesize one side",
                        pos,
                    )
                left, op = f, tok
                i += 1
                break
            if op is not None:
                f = Bin(op, left, f)
            if not stack:
                if tok is None:
                    return f
                if tok == ")":
                    raise UnbalancedParens(f"unmatched ')' at position {pos}", pos)
                raise UnexpectedToken(f"unexpected {spelling!r} at position {pos}", pos)
            if tok != ")":
                if tok is None:
                    raise UnbalancedParens(f"missing ')' at position {pos}", pos)
                raise UnexpectedToken(
                    f"expected ')' at position {pos}, found {spelling!r}", pos
                )
            i += 1
            negations, left, op = stack.pop()


def render(f: Formula, dialect: Dialect = Dialect.ASCII) -> str:
    """Fully parenthesized canonical text; `parse(render(f, d)) == f`."""
    infix = _INFIX[dialect]
    neg = _NEG[dialect]
    out = []
    todo: list = [f]  # formulas still to write, and the text between them
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind is Atom:
            out.append(node.name)
        elif kind is Not:
            out.append(neg)
            todo.append(node.child)
        else:
            out.append("(")
            todo += (")", node.right, infix[node.op], node.left)
    return "".join(out)


class TextMemo:
    """The ASCII ``render`` text of each node met so far, kept up to a budget.

    ``spell(f)`` walks the nodes of ``f`` it has not kept, children first,
    and writes each from its children's texts: ``!`` before the child, or
    ``(left op right)``.  It keeps each text in ``texts`` (node to text),
    and in ``nodes`` (text to node) if that is a dict, and takes its length
    off ``budget``, which the caller raises.  The texts of a deep formula's
    nodes sum to O(nodes × depth), so the walk stops as soon as ``budget``
    is not positive, and the kept text exceeds what was granted by less
    than one node's text.
    """

    def __init__(self, nodes: dict[str, Formula] | None = None):
        self.texts: dict[Formula, str] = {}
        self.nodes = nodes
        self.budget = 0

    def spell(self, f: Formula) -> str | None:
        """``render(f)``, or None if the budget ran out before ``f``'s text."""
        texts = self.texts
        text = texts.get(f)
        if text is not None or self.budget <= 0:
            return text
        nodes, budget = self.nodes, self.budget
        infix, neg = _INFIX[Dialect.ASCII], _NEG[Dialect.ASCII]
        todo = [f]
        while todo:
            node = todo[-1]
            kind = type(node)
            if kind is Atom:
                text = node.name
            elif kind is Not:
                text = texts.get(node.child)
                if text is None:
                    todo.append(node.child)
                    continue
                text = neg + text
            else:
                left, right = texts.get(node.left), texts.get(node.right)
                if left is None or right is None:
                    if right is None:
                        todo.append(node.right)
                    if left is None:
                        todo.append(node.left)
                    continue
                text = f"({left}{infix[node.op]}{right})"
            todo.pop()
            if node in texts:  # shared: met again before its first visit was done
                continue
            texts[node] = text
            if nodes is not None:
                nodes[text] = node
            budget -= len(text)
            if budget <= 0:
                break
        self.budget = budget
        return texts.get(f)
