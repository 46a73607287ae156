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

from ..defs import definiens, match_definiens
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
    subformula_at,
)
# assignments stays bound for perfbench/spans.py, which wraps it
from ..semantics import assignments, evaluate, first_row  # noqa: F401
from .axioms import axiom_instance
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

    def __init__(self, max_lines: int):
        self.max_lines = max_lines
        self.lines: list[ProofLine] = []
        self.memo: dict[Formula, int] = {}

    def formula_at(self, idx: int) -> Formula:
        return self.lines[idx - 1].formula

    def have(self, f: Formula) -> int | None:
        return self.memo.get(f)

    def emit(self, f: Formula, just) -> int:
        if len(self.lines) >= self.max_lines:
            raise ProofTooLarge(
                f"proof exceeds the {self.max_lines}-line guardrail"
            )
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
        big = self.formula_at(major)
        small = self.formula_at(minor)
        if isinstance(big, Bin) and big.op is _IMP and big.left == small:
            result = big.right
        elif (
            isinstance(big, Bin)
            and big.op is _OR
            and isinstance(big.left, Not)
            and big.left.child == small
        ):
            result = big.right
        else:
            raise AssertionError("internal: malformed modus ponens")
        hit = self.have(result)
        if hit is not None:
            return hit
        return self.emit(result, MPJust(major, minor))


def _copy(b: _Builder, idx: int) -> int:
    """Re-derive the formula of an old line as the newest line."""
    f = b.formula_at(idx)
    return b.emit(f, MPJust(_imp_self(b, f), idx))


def _def_step(
    b: _Builder, source: int, name: Operator, path: Path, direction: Direction
) -> int:
    """One definitional rewrite; DEF lines rewrite the line directly above."""
    src_formula = b.formula_at(source)
    sub = subformula_at(src_formula, path)
    if direction is Direction.UNFOLD:
        assert isinstance(sub, Bin) and sub.op is name
        new = definiens(name, sub.left, sub.right)
    else:
        operands = match_definiens(name, sub)
        assert operands is not None
        new = Bin(name, operands[0], operands[1])
    target = replace_at(src_formula, path, new)
    hit = b.have(target)
    if hit is not None:
        return hit
    if source != len(b.lines):
        source = _copy(b, source)
    return b.emit(target, DefJust(name, path, direction))


def _unfold_imp_root(b: _Builder, idx: int) -> int:
    f = b.formula_at(idx)
    assert isinstance(f, Bin) and f.op is _IMP
    target = _disj(Not(f.left), f.right)
    hit = b.have(target)
    if hit is not None:
        return hit
    return _def_step(b, idx, _IMP, (), Direction.UNFOLD)


def _fold_imp_root(b: _Builder, idx: int) -> int:
    f = b.formula_at(idx)
    assert isinstance(f, Bin) and f.op is _OR and isinstance(f.left, Not)
    target = _imp(f.left.child, f.right)
    hit = b.have(target)
    if hit is not None:
        return hit
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
    k = len(guards)
    assert k >= 1
    flip = b.axiom(3, A=guards[k - 1], B=body)
    idx = b.mp(_lift_under(b, guards[: k - 1], flip), idx)
    tail = guards[k - 1]
    for i in range(k - 2, -1, -1):
        swap = _exch(b, guards[i], body, tail)
        idx = b.mp(_lift_under(b, guards[:i], swap), idx)
        tail = _disj(guards[i], tail)
    return idx


def _residue(guards: tuple[Formula, ...]) -> Formula:
    return _nest(guards[:-1], guards[-1])


def _residue_impl(
    b: _Builder, guards: tuple[Formula, ...], body: Formula
) -> int:
    """residue(guards) imp nest(guards, body)"""
    impl = b.axiom(2, A=guards[-1], B=body)
    for i in range(len(guards) - 2, -1, -1):
        impl = _sum_left(b, guards[i], impl)
    return impl


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
    f0: Formula,
    atom_names: list[str],
    values: dict[str, int],
) -> int:
    """nest(guards(v), f0) for the full assignment v (a true branch)."""
    guards = _guard_literals(atom_names, values)
    cache: dict[Formula, int] = {}

    def val(node: Formula) -> int:
        return evaluate(node, values)

    def go(node: Formula) -> int:
        hit = cache.get(node)
        if hit is not None:
            return hit
        if isinstance(node, Atom):
            pos = atom_names.index(node.name)
            idx = _atom_line(b, guards, pos, values[node.name])
        elif isinstance(node, Not):
            child = node.child
            if val(child) == 0:
                idx = go(child)  # the child's signed form is this very formula
            else:
                idx = _lift_mp(b, guards, _dni(b, child), go(child))
        else:
            assert isinstance(node, Bin) and node.op is _OR
            g, h = node.left, node.right
            if val(g) == 1:
                grow = b.axiom(2, A=g, B=h)
                idx = _lift_mp(b, guards, grow, go(g))
            elif val(h) == 1:
                idx = _lift_mp(b, guards, _add_right(b, h, g), go(h))
            else:
                left = go(g)
                right = go(h)
                curried = _lift_mp(b, guards, _nor_intro(b, g, h), left)
                idx = _guarded_mp(
                    b, guards, curried, right, Not(h), Not(_disj(g, h))
                )
        cache[node] = idx
        return idx

    return go(f0)


def _prove_primitive(b: _Builder, f0: Formula, atom_names: list[str]) -> int:
    n = len(atom_names)

    def solve(values: dict[str, int]) -> int:
        k = len(values)
        if k == n:
            return _derive_branch(b, f0, atom_names, values)
        q = Atom(atom_names[k])
        on = solve({**values, atom_names[k]: 1})
        off = solve({**values, atom_names[k]: 0})
        prefix = _guard_literals(atom_names[:k], values)
        keep = _pull_guard(b, on, prefix + (Not(q),), f0, k)  # !q or D
        drop = _pull_guard(b, off, prefix + (q,), f0, k)  # q or D
        bridge = _fold_imp_root(b, keep)  # q imp D
        d = _nest(prefix, f0)
        doubled = b.mp(_sum_right(b, bridge, d), drop)  # D or D
        return b.mp(b.axiom(1, A=d), doubled)

    return solve({})


# ---------------------------------------------------------------------------
# Entry points.


def _first_defined(node: Formula, path: Path) -> tuple[Path, Operator] | None:
    if isinstance(node, Not):
        return _first_defined(node.child, path + (Step.CHILD,))
    if isinstance(node, Bin):
        if node.op is not _OR:
            return path, node.op
        found = _first_defined(node.left, path + (Step.LEFT,))
        if found is not None:
            return found
        return _first_defined(node.right, path + (Step.RIGHT,))
    return None


def _unfold_plan(f: Formula) -> tuple[Formula, list[tuple[Operator, Path]]]:
    """Rewrite ``f`` into the primitive not/or language, recording steps."""
    steps: list[tuple[Operator, Path]] = []
    g = f
    while True:
        found = _first_defined(g, ())
        if found is None:
            return g, steps
        path, op = found
        node = subformula_at(g, path)
        assert isinstance(node, Bin)
        g = replace_at(g, path, definiens(op, node.left, node.right))
        steps.append((op, path))


def prove_tautology(f: Formula, max_lines: int = MAX_PROOF_LINES) -> Proof:
    """A checkable proof of ``f``; raises NotATautology with a countermodel."""
    names = atoms_of(f)
    if len(names) > GENERATOR_ATOM_LIMIT:
        raise TooManyAtoms(len(names), GENERATOR_ATOM_LIMIT)
    row = first_row(f, 0)
    if row is not None:
        raise NotATautology(row)
    f0, steps = _unfold_plan(f)
    b = _Builder(max_lines)
    idx = _prove_primitive(b, f0, names)
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


def prove_main_results(max_lines: int = MAX_PROOF_LINES) -> list[Proof]:
    return [prove_tautology(goal, max_lines) for goal in main_result_goals()]
