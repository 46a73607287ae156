"""Reference implementations used only by the tests.

Everything here is written independently of the library internals: the
connective tables are transcribed a second time as explicit dictionaries,
evaluation is a textbook recursion over match statements, and the
bit-column evaluator packs one truth-table column into a single int.
The definitional equations are transcribed a second time as text, and
matched by a recursion that compares subformulas by structure.
"""

from __future__ import annotations

import itertools
import random

from plogic.formula import Atom, Bin, Formula, Not, Operator
from plogic.parser import parse

TABLES = {
    "or": {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 0},
    "and": {(1, 1): 1, (1, 0): 0, (0, 1): 0, (0, 0): 0},
    "imp": {(1, 1): 1, (1, 0): 0, (0, 1): 1, (0, 0): 1},
    "iff": {(1, 1): 1, (1, 0): 0, (0, 1): 0, (0, 0): 1},
    "nor": {(1, 1): 0, (1, 0): 0, (0, 1): 0, (0, 0): 1},
    "nand": {(1, 1): 0, (1, 0): 1, (0, 1): 1, (0, 0): 1},
    "nimp": {(1, 1): 0, (1, 0): 1, (0, 1): 0, (0, 0): 0},
    "xor": {(1, 1): 0, (1, 0): 1, (0, 1): 1, (0, 0): 0},
    "xiff": {(1, 1): 1, (1, 0): 0, (0, 1): 0, (0, 0): 1},
}


def oracle_eval(f: Formula, env: dict[str, int]) -> int:
    match f:
        case Atom(name=name):
            return env[name]
        case Not(child=child):
            return 1 - oracle_eval(child, env)
        case Bin(op=op, left=left, right=right):
            return TABLES[op.value][(oracle_eval(left, env), oracle_eval(right, env))]
    raise TypeError(f"not a formula: {f!r}")


def oracle_atoms(f: Formula) -> list[str]:
    match f:
        case Atom(name=name):
            return [name]
        case Not(child=child):
            return oracle_atoms(child)
        case Bin(left=left, right=right):
            found = oracle_atoms(left)
            for name in oracle_atoms(right):
                if name not in found:
                    found.append(name)
            return found
    raise TypeError(f"not a formula: {f!r}")


def oracle_assignments(names: list[str]):
    for bits in itertools.product((1, 0), repeat=len(names)):
        yield dict(zip(names, bits))


def oracle_is_tautology(f: Formula) -> bool:
    return all(oracle_eval(f, env) == 1 for env in oracle_assignments(oracle_atoms(f)))


def oracle_is_contradiction(f: Formula) -> bool:
    return all(oracle_eval(f, env) == 0 for env in oracle_assignments(oracle_atoms(f)))


# --- bit-parallel variant: one int per column, one bit per assignment ---

def bit_columns(names: list[str]) -> dict[str, int]:
    """Atom columns with assignment i reading out bit i."""
    cols = {}
    n = len(names)
    for j, name in enumerate(names):
        value = 0
        for i, bits in enumerate(itertools.product((1, 0), repeat=n)):
            value |= bits[j] << i
        cols[name] = value
    return cols


def bit_eval(f: Formula, cols: dict[str, int], mask: int) -> int:
    match f:
        case Atom(name=name):
            return cols[name]
        case Not(child=child):
            return ~bit_eval(child, cols, mask) & mask
        case Bin(op=op, left=left, right=right):
            a = bit_eval(left, cols, mask)
            b = bit_eval(right, cols, mask)
            table = TABLES[op.value]
            out = 0
            if table[(1, 1)]:
                out |= a & b
            if table[(1, 0)]:
                out |= a & ~b
            if table[(0, 1)]:
                out |= ~a & b
            if table[(0, 0)]:
                out |= ~a & ~b
            return out & mask
    raise TypeError(f"not a formula: {f!r}")


def bit_is_tautology(f: Formula) -> bool:
    names = oracle_atoms(f)
    mask = (1 << (2 ** len(names))) - 1
    return bit_eval(f, bit_columns(names), mask) == mask


# --- definitional equations: each definiens over the operands a and b ---

DEFINIENS_TEXTS = {
    "imp": "!a or b",
    "and": "!(!a or !b)",
    "iff": "(a imp b) and (b imp a)",
    "nor": "!(a or b)",
    "nand": "!(a and b)",
    "nimp": "!(a imp b)",
    "xor": "!(a iff b)",
    "xiff": "a iff b",
}
DEFINIENS_PATTERNS = {name: parse(text) for name, text in DEFINIENS_TEXTS.items()}


def oracle_same(x: Formula, y: Formula) -> bool:
    """Structural equality, node by node."""
    match x, y:
        case Atom(name=m), Atom(name=n):
            return m == n
        case Not(child=c), Not(child=d):
            return oracle_same(c, d)
        case Bin(op=o, left=l1, right=r1), Bin(op=p, left=l2, right=r2):
            return o is p and oracle_same(l1, l2) and oracle_same(r1, r2)
    return False


def oracle_match_definiens(name: str, f: Formula) -> tuple[Formula, Formula] | None:
    """(a, b) such that ``f`` is the definiens of the connective ``name``
    over a and b, else None.  Each pattern atom binds on first sight, left
    to right, and must be structurally equal to it at every later sight."""
    bound: dict[str, Formula] = {}

    def fits(pattern: Formula, node: Formula) -> bool:
        match pattern, node:
            case Atom(name=x), _:
                if x in bound:
                    return oracle_same(bound[x], node)
                bound[x] = node
                return True
            case Not(child=p), Not(child=n):
                return fits(p, n)
            case Bin(op=o, left=pl, right=pr), Bin(op=p, left=nl, right=nr):
                return o is p and fits(pl, nl) and fits(pr, nr)
        return False

    return (bound["a"], bound["b"]) if fits(DEFINIENS_PATTERNS[name], f) else None


# --- random formula generation for corpora ---

ALL_OPS = list(Operator)


def random_formula(
    rng: random.Random,
    names: list[str],
    depth: int,
    ops: list[Operator] = ALL_OPS,
    leaf_chance: float = 0.3,
) -> Formula:
    if depth == 0 or rng.random() < leaf_chance:
        return Atom(rng.choice(names))
    if rng.random() < 0.25:
        return Not(random_formula(rng, names, depth - 1, ops, leaf_chance))
    return Bin(
        rng.choice(ops),
        random_formula(rng, names, depth - 1, ops, leaf_chance),
        random_formula(rng, names, depth - 1, ops, leaf_chance),
    )
