"""Concrete syntax: parsing and rendering of formulas.

Two dialects share one grammar.  The unicode dialect uses the glyphs
``¬ ∨ ∧ → ↔ ↓ ↑ ← ⊕ ↕``; the ascii dialect uses ``!``/``not``, ``or``,
``and``, ``->``/``imp``, ``<->``/``iff``, ``nor``, ``nand``, ``nimp``,
``xor`` and ``xiff``.  Binary connectives have no precedence and no
associativity: an unparenthesized ``a op b op c`` is rejected rather than
grouped.  A single outermost pair of parentheses may be omitted.

``parse`` splits a text into its tokens' spellings with one ``findall``
and keeps no positions; a position is recovered, by scanning the text
again, only for the error that reports it.
"""

from __future__ import annotations

import enum
import itertools
import re

from .errors import (
    AmbiguousChain,
    EmptyInput,
    ParseError,
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
# non-space character is unknown.  The one group is a token's spelling.
_TOKEN_RE = re.compile(
    r"\s*(%s|%s|\S)"
    % (
        ATOM_PATTERN,
        "|".join(
            re.escape(s)
            for s in sorted(_TOKENS.keys() - RESERVED_WORDS, key=len, reverse=True)
        ),
    )
)

_ATOM_START = re.compile(ATOM_PATTERN).match


def _error(
    error: type[ParseError], text: str, i: int, head: str, tail: str = ""
) -> ParseError:
    """``error`` at token ``i`` of ``text`` (at its end past the last token),
    with the message ``head at position N tail``.  Only an error needs a
    position, so only an error scans the text again for one."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i, None), None)
    pos = len(text) if m is None else m.start(1)
    return error(f"{head} at position {pos}{tail}", pos)


def parse(text: str) -> Formula:
    """Parse a formula in either dialect; whitespace is insignificant.

    One ``findall`` splits the text into spellings; a spelling that is not
    in ``_TOKENS`` is an atom, or, if it does not start with a letter, an
    unknown character, which is reported before any grammar error.  Then
    one pass over the spellings with an explicit stack, so nesting depth is
    bounded only by memory.  Each open parenthesis saves the enclosing
    expression's pending negations, left operand and operator.
    """
    spellings = _TOKEN_RE.findall(text)
    unknown = {s for s in set(spellings).difference(_TOKENS) if not _ATOM_START(s)}
    if unknown:
        i = next(i for i, s in enumerate(spellings) if s in unknown)
        raise _error(UnknownToken, text, i, f"unknown token {spellings[i]!r}")
    if not spellings:
        raise EmptyInput("empty input")
    spellings.append("")  # the end of the text, which is no token
    stack: list[tuple[int, Formula | None, Operator | None]] = []
    negations, left, op = 0, None, None
    i = 0
    while True:
        # expecting a unit: negations, then an atom or an open parenthesis
        spelling = spellings[i]
        tok = _TOKENS.get(spelling)
        i += 1
        if tok is Not:
            negations += 1
            continue
        if tok == "(":
            stack.append((negations, left, op))
            negations, left, op = 0, None, None
            continue
        if tok is not None or not spelling:  # an operator, ')' or the end
            if tok == ")":
                raise _error(UnbalancedParens, text, i - 1, "unmatched ')'")
            raise _error(UnexpectedToken, text, i - 1, "expected a formula")
        f: Formula = Atom(spelling)
        while True:
            # f is a complete unit; finish the expression it ends, if any
            while negations:
                f = Not(f)
                negations -= 1
            spelling = spellings[i]
            tok = _TOKENS.get(spelling)
            if isinstance(tok, Operator):
                if op is not None:
                    raise _error(AmbiguousChain, text, i, "operator chain is ambiguous",
                                 "; parenthesize one side")
                left, op = f, tok
                i += 1
                break
            if op is not None:
                f = Bin(op, left, f)
            if not stack:
                if not spelling:
                    return f
                if tok == ")":
                    raise _error(UnbalancedParens, text, i, "unmatched ')'")
                raise _error(UnexpectedToken, text, i, f"unexpected {spelling!r}")
            if tok != ")":
                if not spelling:
                    raise _error(UnbalancedParens, text, i, "missing ')'")
                raise _error(UnexpectedToken, text, i, "expected ')'", f", found {spelling!r}")
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
