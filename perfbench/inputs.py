"""Seeded formula families for the benchmark workloads.

Every family fixes the shape that decides an operation's cost (atom
count, formula size, where a witness falls) and leaves to the seed what
does not change that cost much: atom names, bracketings, literal signs,
which of several equivalent spellings a connective gets, and the order of
operands.  Runs with different seeds therefore do comparable work, which
is what lets their figures be compared.
"""

from __future__ import annotations

import math
import random
import string

from plogic.formula import Atom, Bin, Not, Operator as Op

NAME_POOL = list(string.ascii_lowercase + string.ascii_uppercase)

# Six spellings of a disjunction and of a conjunction, tagged with the
# connective family they use, so that together they cover every binary
# connective except iff, xor and xiff (which the pair literals cover).
OR_SPELLINGS = {
    "or": lambda a, b: Bin(Op.OR, a, b),
    "imp": lambda a, b: Bin(Op.IMP, Not(a), b),
    "and": lambda a, b: Not(Bin(Op.AND, Not(a), Not(b))),
    "nor": lambda a, b: Not(Bin(Op.NOR, a, b)),
    "nand": lambda a, b: Bin(Op.NAND, Not(a), Not(b)),
    "nimp": lambda a, b: Not(Bin(Op.NIMP, Not(a), b)),
}
AND_SPELLINGS = {
    "and": lambda a, b: Bin(Op.AND, a, b),
    "or": lambda a, b: Not(Bin(Op.OR, Not(a), Not(b))),
    "imp": lambda a, b: Not(Bin(Op.IMP, a, Not(b))),
    "nor": lambda a, b: Bin(Op.NOR, Not(a), Not(b)),
    "nimp": lambda a, b: Bin(Op.NIMP, a, Not(b)),
    "nand": lambda a, b: Not(Bin(Op.NAND, a, b)),
}
FO_SPELLINGS = ("or", "imp", "and")
NFO_SPELLINGS = ("nor", "nand", "nimp")


def names(rng: random.Random, n: int) -> list[str]:
    return rng.sample(NAME_POOL, n)


def literal(rng: random.Random, name: str):
    return Atom(name) if rng.random() < 0.5 else Not(Atom(name))


def bracket(rng: random.Random, items: list, combine) -> object:
    """Join ``items`` in order under a random binary bracketing."""
    items = list(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i : i + 2] = [combine(items[i], items[i + 1])]
    return items[0]


def _spelled(rng: random.Random, table: dict, allowed) -> object:
    keys = list(allowed)
    return lambda a, b: table[rng.choice(keys)](a, b)


# --- prove / verify: tautologies with a proof size set by the shape ---------


def clause(rng: random.Random, n: int, pair: str, spellings: list[str]):
    """A disjunction over ``n`` atoms holding a complementary pair.

    ``pair`` is ``lit`` (x and !x), ``iff`` ((x iff y) and (x xor y)) or
    ``xiff`` ((x xiff y) and (x xor y)); the disjunctions are spelled with
    the given connectives, one each, in seeded order and bracketing.
    The proof size depends mostly on n and on the pair kind.
    """
    ns = names(rng, n)
    if pair == "lit":
        x = ns[0]
        lits = [Atom(x), Not(Atom(x))] + [literal(rng, m) for m in ns[1:]]
    else:
        op = Op.IFF if pair == "iff" else Op.UPDOWN
        x, y = Atom(ns[0]), Atom(ns[1])
        lits = [Bin(op, x, y), Bin(Op.XOR, x, y)] + [literal(rng, m) for m in ns[2:]]
    rng.shuffle(lits)
    order = list(spellings)
    if len(order) != len(lits) - 1:
        raise ValueError("one spelling per disjunction")
    rng.shuffle(order)
    return bracket(rng, lits, lambda a, b: OR_SPELLINGS[order.pop()](a, b))


_DUAL = {Op.OR: Op.NOR, Op.AND: Op.NAND, Op.IMP: Op.NIMP, Op.IFF: Op.XOR}


def dual_identity(rng: random.Random, op: Op):
    """``(X op Y) iff !(X dual(op) Y)`` on two atoms, sides in seeded order."""
    p, q = names(rng, 2)
    x, y = literal(rng, p), literal(rng, q)
    left, right = Bin(op, x, y), Not(Bin(_DUAL[op], x, y))
    if rng.random() < 0.5:
        left, right = right, left
    return Bin(Op.IFF, left, right)


# --- semantics-sweep: answers that need every row ----------------------------


def regrouping(rng: random.Random, n: int):
    """An n-atom A/B regrouping pair: A is a tautology, B its perpendicular.

    A = T1 iff T2 for two seeded bracketings of one or-chain (or and-chain);
    B rewrites each side into nor (nand) form and joins them with xor, as
    the paper's B1/B2 do for three atoms, so B is a contradiction.
    """
    family = rng.choice([Op.OR, Op.AND])
    dual = Op.NOR if family is Op.OR else Op.NAND
    atoms = [Atom(m) for m in names(rng, n)]
    t1 = bracket(rng, atoms, lambda a, b: Bin(family, a, b))
    t2 = bracket(rng, atoms, lambda a, b: Bin(family, a, b))

    def negated(t):
        """The dual-family spelling of !t."""
        def inner(u):
            return u if isinstance(u, Atom) else Not(negated(u))
        return Bin(dual, inner(t.left), inner(t.right))

    return Bin(Op.IFF, t1, t2), Bin(Op.XOR, negated(t1), negated(t2))


# --- semantics-witness: a witness at a chosen row ----------------------------


def row_equality(rng: random.Random, atom_names: list[str], row: int, spellings):
    """True exactly on table row ``row`` (all-ones row is row 0)."""
    n = len(atom_names)
    m = (1 << n) - 1 - row
    lits = [
        Atom(name) if (m >> (n - 1 - j)) & 1 else Not(Atom(name))
        for j, name in enumerate(atom_names)
    ]
    return bracket(rng, lits, _spelled(rng, AND_SPELLINGS, spellings))


def witness_rows(rng: random.Random, count: int, limit: int = 1024) -> list[int]:
    """Seeded rows, mostly among the first few, stratified so that every
    seed spreads them the same way: over half fall in the first 3 rows
    and one in ten beyond row 150 (for ``limit`` 1024)."""
    out = []
    for i in range(count):
        u = (i + rng.random()) / count
        out.append(min(limit - 1, int(math.exp(u**3 * math.log(limit))) - 1))
    return out
