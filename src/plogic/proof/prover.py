"""Constructive proof generation for tautologies.

The classical recipe: case-split on the atoms, prove the goal under every
full assignment, then eliminate the case hypotheses pairwise.  Instead of
carrying hypotheses as premise lines and discharging them afterwards, a
branch for the assignment v is derived directly as the closed theorem

    L1 or (L2 or (... (Ln or f0)))

where Li is !qi when v(qi) = 1 and qi when v(qi) = 0, and f0 is the goal
rewritten into the primitive not/or language.  Within a branch, the usual
induction over subformulas runs underneath the guard literals, lifted by
the sum axiom.  Two branches that differ only in the innermost guard are
merged by commuting that guard to the front and resolving q against !q,
until no guards remain.  Finally DEF lines fold f0 back into the original
goal.

Every derived inference is expanded on the spot into AX1..AX4, MP and
single DEF steps; theorems already on some line are reused by reference,
never re-derived.
"""

from __future__ import annotations

# match_definiens stays bound for perfbench/spans.py, which wraps it
from ..defs import definiens, match_definiens, rewrite  # noqa: F401
from ..errors import NotATautology, ProofTooLarge, TooManyAtoms
from ..formula import (
    Atom,
    Bin,
    Formula,
    Not,
    Operator,
    Path,
    Step,
    atoms_of,
    replace_at,
    subformulas,
)
# assignments stays bound for perfbench/spans.py, which wraps it
from ..semantics import _fill_columns, assignments, first_row  # noqa: F401
from .axioms import axiom_instance, major_parts
from .objects import (
    DefJust,
    Direction,
    MPJust,
    Proof,
    ProofLine,
    axiom_just,
)

MAX_PROOF_LINES = 1_000_000
GENERATOR_ATOM_LIMIT = 10

_OR = Operator.OR
_IMP = Operator.IMP


def _disj(a: Formula, b: Formula) -> Formula:
    return Bin(_OR, a, b)


def _imp(a: Formula, b: Formula) -> Formula:
    return Bin(_IMP, a, b)


def _nest(guards: tuple[Formula, ...], body: Formula) -> Formula:
    for g in reversed(guards):
        body = _disj(g, body)
    return body


class _Builder:
    """Append-only proof tape with a formula -> line memo."""

    def __init__(self):
        self.lines: list[ProofLine] = []
        self.memo: dict[Formula, int] = {}

    def formula_at(self, idx: int) -> Formula:
        return self.lines[idx - 1].formula

    def have(self, f: Formula) -> int | None:
        return self.memo.get(f)

    def emit(self, f: Formula, just) -> int:
        if len(self.lines) >= MAX_PROOF_LINES:
            raise ProofTooLarge(f"proof exceeds the {MAX_PROOF_LINES}-line guardrail")
        idx = len(self.lines) + 1
        self.lines.append(ProofLine(idx, f, just))
        self.memo.setdefault(f, idx)
        return idx

    def axiom(self, schema: int, **subst: Formula) -> int:
        f = axiom_instance(schema, subst)
        hit = self.have(f)
        if hit is not None:
            return hit
        return self.emit(f, axiom_just(schema, subst))

    def mp(self, major: int, minor: int) -> int:
        parts = major_parts(self.formula_at(major))
        if parts is None or parts[0] != self.formula_at(minor):
            raise AssertionError("internal: malformed modus ponens")
        hit = self.have(parts[1])
        if hit is not None:
            return hit
        return self.emit(parts[1], MPJust(major, minor))


def _copy(b: _Builder, idx: int) -> int:
    """Re-derive the formula of an old line as the newest line."""
    f = b.formula_at(idx)
    return b.emit(f, MPJust(_imp_self(b, f), idx))


def _def_step(
    b: _Builder, source: int, name: Operator, path: Path, direction: Direction
) -> int:
    """One definitional rewrite; DEF lines rewrite the line directly above."""
    target = rewrite(b.formula_at(source), name, path, direction)
    hit = b.have(target)
    if hit is not None:
        return hit
    if source != len(b.lines):
        source = _copy(b, source)
    return b.emit(target, DefJust(name, path, direction))


def _unfold_imp_root(b: _Builder, idx: int) -> int:
    return _def_step(b, idx, _IMP, (), Direction.UNFOLD)


def _fold_imp_root(b: _Builder, idx: int) -> int:
    return _def_step(b, idx, _IMP, (), Direction.FOLD)


# ---------------------------------------------------------------------------
# Derived-lemma library.  Each function returns the index of a line whose
# formula is exactly the stated theorem, deriving it only on first request.


def _imp_self(b: _Builder, a: Formula) -> int:
    """A imp A"""
    target = _imp(a, a)
    hit = b.have(target)
    if hit is not None:
        return hit
    two = b.axiom(2, A=a, B=a)  # A imp (A or A)
    unfolded = _def_step(b, two, _IMP, (), Direction.UNFOLD)  # !A or (A or A)
    one = b.axiom(1, A=a)  # (A or A) imp A
    four = b.axiom(4, A=Not(a), B=_disj(a, a), C=a)
    chain = b.mp(four, one)  # (!A or (A or A)) imp (!A or A)
    weak_lem = b.mp(chain, unfolded)  # !A or A
    return _fold_imp_root(b, weak_lem)


def _lem_flipped(b: _Builder, a: Formula) -> int:
    """!A or A"""
    target = _disj(Not(a), a)
    hit = b.have(target)
    if hit is not None:
        return hit
    return _unfold_imp_root(b, _imp_self(b, a))


def _lem(b: _Builder, a: Formula) -> int:
    """A or !A"""
    target = _disj(a, Not(a))
    hit = b.have(target)
    if hit is not None:
        return hit
    flip = b.axiom(3, A=Not(a), B=a)
    return b.mp(flip, _lem_flipped(b, a))


def _syl(b: _Builder, first: int, second: int) -> int:
    """From X imp Y and Y imp Z: X imp Z."""
    f1 = b.formula_at(first)
    f2 = b.formula_at(second)
    assert isinstance(f1, Bin) and isinstance(f2, Bin)
    x, y, z = f1.left, f1.right, f2.right
    assert f2.left == y
    target = _imp(x, z)
    hit = b.have(target)
    if hit is not None:
        return hit
    unfolded = _unfold_imp_root(b, first)  # !X or Y
    four = b.axiom(4, A=Not(x), B=y, C=z)
    chain = b.mp(four, second)  # (!X or Y) imp (!X or Z)
    primitive = b.mp(chain, unfolded)  # !X or Z
    return _fold_imp_root(b, primitive)


def _sum_left(b: _Builder, p: Formula, impl: int) -> int:
    """From X imp Y: (P or X) imp (P or Y)."""
    f = b.formula_at(impl)
    assert isinstance(f, Bin) and f.op is _IMP
    target = _imp(_disj(p, f.left), _disj(p, f.right))
    hit = b.have(target)
    if hit is not None:
        return hit
    four = b.axiom(4, A=p, B=f.left, C=f.right)
    return b.mp(four, impl)


def _sum_right(b: _Builder, impl: int, a: Formula) -> int:
    """From X imp Y: (X or A) imp (Y or A)."""
    f = b.formula_at(impl)
    assert isinstance(f, Bin) and f.op is _IMP
    x, y = f.left, f.right
    target = _imp(_disj(x, a), _disj(y, a))
    hit = b.have(target)
    if hit is not None:
        return hit
    left = b.axiom(3, A=x, B=a)  # (X or A) imp (A or X)
    mid = _sum_left(b, a, impl)  # (A or X) imp (A or Y)
    right = b.axiom(3, A=a, B=y)  # (A or Y) imp (Y or A)
    return _syl(b, _syl(b, left, mid), right)


def _add_right(b: _Builder, a: Formula, p: Formula) -> int:
    """A imp (P or A)"""
    target = _imp(a, _disj(p, a))
    hit = b.have(target)
    if hit is not None:
        return hit
    grow = b.axiom(2, A=a, B=p)  # A imp (A or P)
    flip = b.axiom(3, A=a, B=p)  # (A or P) imp (P or A)
    return _syl(b, grow, flip)


def _absorb(b: _Builder, impl: int) -> int:
    """From A imp Y: (A or Y) imp Y."""
    f = b.formula_at(impl)
    assert isinstance(f, Bin) and f.op is _IMP
    a, y = f.left, f.right
    target = _imp(_disj(a, y), y)
    hit = b.have(target)
    if hit is not None:
        return hit
    doubled = _sum_right(b, impl, y)  # (A or Y) imp (Y or Y)
    collapse = b.axiom(1, A=y)  # (Y or Y) imp Y
    return _syl(b, doubled, collapse)


def _exch(b: _Builder, a: Formula, c: Formula, d: Formula) -> int:
    """(A or (C or D)) imp (C or (A or D))"""
    inner = _disj(c, _disj(a, d))
    target = _imp(_disj(a, _disj(c, d)), inner)
    hit = b.have(target)
    if hit is not None:
        return hit
    grow = _add_right(b, d, a)  # D imp (A or D)
    lifted = _sum_left(b, c, grow)  # (C or D) imp (C or (A or D))
    lifted = _sum_left(b, a, lifted)  # (A or (C or D)) imp (A or inner)
    into = _syl(b, b.axiom(2, A=a, B=d), _add_right(b, _disj(a, d), c))
    # into: A imp inner
    drop = _absorb(b, into)  # (A or inner) imp inner
    return _syl(b, lifted, drop)


def _assoc_left(b: _Builder, x: Formula, y: Formula, z: Formula) -> int:
    """((X or Y) or Z) imp (X or (Y or Z))"""
    target = _imp(_disj(_disj(x, y), z), _disj(x, _disj(y, z)))
    hit = b.have(target)
    if hit is not None:
        return hit
    spin = b.axiom(3, A=_disj(x, y), B=z)  # ((X or Y) or Z) imp (Z or (X or Y))
    pull = _exch(b, z, x, y)  # (Z or (X or Y)) imp (X or (Z or Y))
    fix = _sum_left(b, x, b.axiom(3, A=z, B=y))  # (X or (Z or Y)) imp (X or (Y or Z))
    return _syl(b, _syl(b, spin, pull), fix)


def _dni(b: _Builder, a: Formula) -> int:
    """A imp !!A"""
    target = _imp(a, Not(Not(a)))
    hit = b.have(target)
    if hit is not None:
        return hit
    return _fold_imp_root(b, _lem(b, Not(a)))


def _nor_intro(b: _Builder, g: Formula, h: Formula) -> int:
    """!G imp (!H imp !(G or H))"""
    z = Not(_disj(g, h))
    target = _imp(Not(g), _imp(Not(h), z))
    hit = b.have(target)
    if hit is not None:
        return hit
    split = b.mp(_assoc_left(b, g, h, z), _lem(b, _disj(g, h)))  # G or (H or Z)
    step1 = b.mp(_sum_right(b, _dni(b, g), _disj(h, z)), split)  # !!G or (H or Z)
    inner = _sum_right(b, _dni(b, h), z)  # (H or Z) imp (!!H or Z)
    step2 = b.mp(_sum_left(b, Not(Not(g)), inner), step1)  # !!G or (!!H or Z)
    folded = _def_step(b, step2, _IMP, (Step.RIGHT,), Direction.FOLD)
    return _fold_imp_root(b, folded)


# ---------------------------------------------------------------------------
# Guarded-clause plumbing.


def _lift_under(b: _Builder, guards: tuple[Formula, ...], impl: int) -> int:
    for g in reversed(guards):
        impl = _sum_left(b, g, impl)
    return impl


def _lift_mp(
    b: _Builder, guards: tuple[Formula, ...], impl: int, clause: int
) -> int:
    return b.mp(_lift_under(b, guards, impl), clause)


def _pull_guard(
    b: _Builder,
    idx: int,
    guards: tuple[Formula, ...],
    body: Formula,
    pos: int,
) -> int:
    """Commute the guard at ``pos`` to the front of the clause."""
    x = guards[pos]
    tail = _nest(guards[pos + 1 :], body)
    for i in range(pos - 1, -1, -1):
        swap = _exch(b, guards[i], x, tail)
        idx = b.mp(_lift_under(b, guards[:i], swap), idx)
        tail = _disj(guards[i], tail)
    return idx


def _pull_body(
    b: _Builder, idx: int, guards: tuple[Formula, ...], body: Formula
) -> int:
    """Commute the body to the front, leaving the guards-only residue."""
    flip = b.axiom(3, A=guards[-1], B=body)  # swap the body with the last guard
    idx = b.mp(_lift_under(b, guards[:-1], flip), idx)
    return _pull_guard(b, idx, guards[:-1] + (body,), guards[-1], len(guards) - 1)


def _residue(guards: tuple[Formula, ...]) -> Formula:
    return _nest(guards[:-1], guards[-1])


def _residue_impl(
    b: _Builder, guards: tuple[Formula, ...], body: Formula
) -> int:
    """residue(guards) imp nest(guards, body)"""
    return _lift_under(b, guards[:-1], b.axiom(2, A=guards[-1], B=body))


def _guarded_mp(
    b: _Builder,
    guards: tuple[Formula, ...],
    impl_clause: int,
    arg_clause: int,
    x: Formula,
    z: Formula,
) -> int:
    """From nest(guards, X imp Z) and nest(guards, X): nest(guards, Z)."""
    k = len(guards)
    goal = _nest(guards, z)
    unfolded = _def_step(
        b, impl_clause, _IMP, (Step.RIGHT,) * k, Direction.UNFOLD
    )
    fronted = _pull_guard(b, unfolded, guards + (Not(x),), z, k)  # !X or goal
    bridge = _fold_imp_root(b, fronted)  # X imp goal
    arg_front = _pull_body(b, arg_clause, guards, x)  # X or residue
    res = _residue(guards)
    shifted = b.mp(_sum_right(b, bridge, res), arg_front)  # goal or residue
    flipped = b.mp(b.axiom(3, A=goal, B=res), shifted)  # residue or goal
    soak = _absorb(b, _residue_impl(b, guards, z))  # (residue or goal) imp goal
    return b.mp(soak, flipped)


# ---------------------------------------------------------------------------
# Branches and case elimination.


def _guard_literals(
    atom_names: list[str], values: dict[str, int]
) -> tuple[Formula, ...]:
    return tuple(
        Not(Atom(n)) if values[n] else Atom(n)
        for n in atom_names
        if n in values
    )


def _atom_line(
    b: _Builder,
    guards: tuple[Formula, ...],
    pos: int,
    value: int,
) -> int:
    """nest(guards, lit) where lit is the signed atom guarded at ``pos``."""
    q = guards[pos].child if value else guards[pos]
    body = q if value else Not(q)
    idx = _lem_flipped(b, q) if value else _lem(b, q)
    lam = guards[pos]
    tail = body
    for j in range(len(guards) - 1, pos, -1):
        widen = _add_right(b, tail, guards[j])  # tail imp (g_j or tail)
        idx = b.mp(_sum_left(b, lam, widen), idx)
        tail = _disj(guards[j], tail)
    for j in range(pos - 1, -1, -1):
        current = b.formula_at(idx)
        idx = b.mp(_add_right(b, current, guards[j]), idx)
    return idx


def _derive_branch(
    b: _Builder,
    nodes: list[Formula],
    atom_names: list[str],
    values: dict[str, int],
) -> int:
    """nest(guards(v), f0) for the full assignment v (a true branch), where
    f0 is the last of ``nodes``, its subformulas in ``subformulas`` order.

    Lines come in the order of the natural recursion: a node's lemma, its
    operands' lines, then the step joining them.  A todo entry (node, None)
    enters a node and (node, lemma) finishes it; lemma 0 stands for none.
    """
    guards = _guard_literals(atom_names, values)
    value = _fill_columns(nodes, values, 1)
    line: dict[Formula, int] = {}
    todo: list[tuple[Formula, int | None]] = [(nodes[-1], None)]
    while todo:
        node, lemma = todo.pop()
        if lemma is None and node in line:
            continue
        if isinstance(node, Atom):
            pos = atom_names.index(node.name)
            line[node] = _atom_line(b, guards, pos, values[node.name])
        elif isinstance(node, Not):
            x = node.child
            if lemma is None:
                todo += ((node, _dni(b, x) if value[x] else 0), (x, None))
            else:  # a false child's signed form is this very formula
                line[node] = _lift_mp(b, guards, lemma, line[x]) if lemma else line[x]
        else:
            assert isinstance(node, Bin) and node.op is _OR
            g, h = node.left, node.right
            if lemma is None:
                if value[g]:
                    todo += ((node, b.axiom(2, A=g, B=h)), (g, None))
                elif value[h]:
                    todo += ((node, _add_right(b, h, g)), (h, None))
                else:
                    todo += ((node, 0), (h, None), (g, None))
            elif lemma:
                line[node] = _lift_mp(b, guards, lemma, line[g if value[g] else h])
            else:
                curried = _lift_mp(b, guards, _nor_intro(b, g, h), line[g])
                line[node] = _guarded_mp(b, guards, curried, line[h], Not(h), Not(_disj(g, h)))
    return line[nodes[-1]]


def _case_split(
    b: _Builder, nodes: list[Formula], atom_names: list[str], values: dict[str, int]
) -> int:
    """nest(guards(values), f0), by splitting on each atom ``values`` leaves
    open.  Recursion depth is the atom count, at most GENERATOR_ATOM_LIMIT."""
    k = len(values)
    if k == len(atom_names):
        return _derive_branch(b, nodes, atom_names, values)
    f0 = nodes[-1]
    q = Atom(atom_names[k])
    on = _case_split(b, nodes, atom_names, {**values, atom_names[k]: 1})
    off = _case_split(b, nodes, atom_names, {**values, atom_names[k]: 0})
    prefix = _guard_literals(atom_names[:k], values)
    keep = _pull_guard(b, on, prefix + (Not(q),), f0, k)  # !q or D
    drop = _pull_guard(b, off, prefix + (q,), f0, k)  # q or D
    bridge = _fold_imp_root(b, keep)  # q imp D
    d = _nest(prefix, f0)
    doubled = b.mp(_sum_right(b, bridge, d), drop)  # D or D
    return b.mp(b.axiom(1, A=d), doubled)


# ---------------------------------------------------------------------------
# Entry points.


def _unfold_plan(f: Formula) -> tuple[Formula, list[tuple[Operator, Path]]]:
    """Rewrite ``f`` into the primitive not/or language, recording steps: a
    preorder walk unfolds each defined connective where it meets one."""
    steps: list[tuple[Operator, Path]] = []
    g = f
    todo: list[tuple[Path, Formula]] = [((), f)]
    while todo:
        path, node = todo.pop()
        while isinstance(node, Bin) and node.op is not _OR:
            steps.append((node.op, path))
            node = definiens(node.op, node.left, node.right)
            g = replace_at(g, path, node)
        if isinstance(node, Not):
            todo.append((path + (Step.CHILD,), node.child))
        elif isinstance(node, Bin):
            todo += ((path + (Step.RIGHT,), node.right), (path + (Step.LEFT,), node.left))
    return g, steps


def prove_tautology(f: Formula) -> Proof:
    """A checkable proof of ``f``; raises NotATautology with a countermodel."""
    names = atoms_of(f)
    if len(names) > GENERATOR_ATOM_LIMIT:
        raise TooManyAtoms(len(names), GENERATOR_ATOM_LIMIT)
    row = first_row(f, 0)
    if row is not None:
        raise NotATautology(row)
    f0, steps = _unfold_plan(f)
    b = _Builder()
    idx = _case_split(b, subformulas(f0), names, {})
    for op, path in reversed(steps):
        idx = _def_step(b, idx, op, path, Direction.FOLD)
    if b.lines[-1].formula != f:
        idx = _copy(b, idx)
    return Proof(goal=f, lines=b.lines)


def main_result_goals() -> list[Formula]:
    """The four nor/nand regrouping biconditionals, in presentation order."""
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    nor = lambda x, y: Bin(Operator.NOR, x, y)
    nand = lambda x, y: Bin(Operator.NAND, x, y)
    iff = lambda x, y: Bin(Operator.IFF, x, y)
    return [
        iff(nor(p, Not(nor(q, r))), nor(Not(nor(p, q)), r)),
        iff(nand(p, Not(nand(q, r))), nand(Not(nand(p, q)), r)),
        iff(nor(p, Not(nand(q, r))), nand(Not(nor(p, q)), Not(nor(p, r)))),
        iff(nand(p, Not(nor(q, r))), nor(Not(nand(p, q)), Not(nand(p, r)))),
    ]


def prove_main_results() -> list[Proof]:
    return [prove_tautology(goal) for goal in main_result_goals()]
