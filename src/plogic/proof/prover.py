"""Constructive proof generation for tautologies, by three methods.

An equivalence A iff B whose sides share one normal form under !!X -> X
and (X or Y) or Z -> X or (Y or Z) takes the rewrite route, as the paper's
Hilbert-Ackermann derivations do: each side is rewritten to that form
top-down, each step a derived lemma lifted into place by congruence, and
the chained steps give A imp B and B imp A.  The sides' forms may also be
one distribution step apart, X or !(U or V) against
!(!(X or !U) or !(X or !V)) at the root of one side's form or under one
negation there; that step is one more derived lemma in the chain.
A clause takes the clause route, as Hilbert-Ackermann derive every
tautological clause: where some X and also !X lie on the goal's disjunct
spine (the operands of its disjunctions, and Y under each !!Y), each gives
an implication into the goal, which X or !X resolves.  Neither route needs
a truth table, and their proofs grow with the formula, not with 2^n.
The case split takes any goal: prove it under every full assignment, then
eliminate the case hypotheses pairwise.  A branch for the assignment v is
derived directly as the closed theorem

    Ln or (... (L2 or (L1 or f0)))

where Li is !qi when v(qi) = 1 and qi when v(qi) = 0, for the atoms
q1 ... qn in order, and f0 is the goal rewritten into the primitive not/or
language.  Within a branch, the usual induction over subformulas runs
underneath the guard literals, lifted by the sum axiom; as in Kalmár's
lemma, each subformula has only its own atoms' guards.  The case split
is one loop over the truth table's rows, q1 changing slowest and qn
fastest, so two rows in turn that differ only in qn give branches that
differ only in their outermost guard, and resolving qn against !qn merges
them; each merged clause is resolved in turn against its partner on the
atom before, until no guards remain.  _prove tries the methods in turn;
the f0 line that the first one gives ends the proof, old or new, and DEF
lines fold it back into the goal.

Every derived inference is expanded on the spot into AX1..AX4, MP and
single DEF steps.  A theorem already on some line is reused by reference,
never written twice, except where a DEF step must copy an older line
(_copy): in _syl under _add_right, _exch or _chain, or _lem_flipped under _dne.
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
    subformulas,
)
from ..semantics import _fill_columns, assignments, first_row
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

    def emit(self, f: Formula, just) -> int:
        if len(self.lines) >= MAX_PROOF_LINES:
            raise ProofTooLarge(f"proof exceeds the {MAX_PROOF_LINES}-line guardrail")
        idx = len(self.lines) + 1
        self.lines.append(ProofLine(idx, f, just))
        self.memo.setdefault(f, idx)
        return idx

    def cut(self, idx: int) -> None:
        """Drop the lines after ``idx``, which no line up to it cites."""
        if idx < len(self.lines):
            del self.lines[idx:]
            self.memo = {f: i for f, i in self.memo.items() if i <= idx}

    def axiom(self, schema: int, **subst: Formula) -> int:
        f = axiom_instance(schema, subst)
        hit = self.memo.get(f)
        if hit is not None:
            return hit
        return self.emit(f, axiom_just(schema, subst))

    def mp(self, major: int, minor: int) -> int:
        parts = major_parts(self.formula_at(major))
        if parts is None or parts[0] != self.formula_at(minor):
            raise AssertionError("internal: malformed modus ponens")
        hit = self.memo.get(parts[1])
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
    hit = b.memo.get(target)
    if hit is not None:
        return hit
    if source != len(b.lines):
        source = _copy(b, source)
    return b.emit(target, DefJust(name, path, direction))


def _fold_imp_root(b: _Builder, idx: int) -> int:
    return _def_step(b, idx, _IMP, (), Direction.FOLD)


# ---------------------------------------------------------------------------
# Derived-lemma library.  Each function returns the index of a line whose
# formula is exactly the stated theorem.  Asked again, a lemma returns the
# memo's line at once or re-walks steps that each hit the memo.


def _imp_self(b: _Builder, a: Formula) -> int:
    """A imp A"""
    return _syl(b, b.axiom(2, A=a, B=a), b.axiom(1, A=a))


def _lem_flipped(b: _Builder, a: Formula) -> int:
    """!A or A"""
    return _def_step(b, _imp_self(b, a), _IMP, (), Direction.UNFOLD)


def _lem(b: _Builder, a: Formula) -> int:
    """A or !A"""
    flip = b.axiom(3, A=Not(a), B=a)
    return b.mp(flip, _lem_flipped(b, a))


def _syl(b: _Builder, first: int, second: int) -> int:
    """From X imp Y and Y imp Z: X imp Z."""
    f1 = b.formula_at(first)
    f2 = b.formula_at(second)
    assert isinstance(f1, Bin) and isinstance(f2, Bin)
    x, y, z = f1.left, f1.right, f2.right
    assert f2.left == y
    hit = b.memo.get(_imp(x, z))
    if hit is not None:
        return hit
    four = b.axiom(4, A=Not(x), B=y, C=z)
    chain = b.mp(four, second)  # (!X or Y) imp (!X or Z)
    folded = _def_step(b, chain, _IMP, (Step.LEFT,), Direction.FOLD)  # (X imp Y) imp (!X or Z)
    if _disj(Not(x), z) in b.memo:  # an older line, which a fold would copy
        return b.mp(_def_step(b, folded, _IMP, (Step.RIGHT,), Direction.FOLD), first)
    return _fold_imp_root(b, b.mp(folded, first))  # via !X or Z


def _sum_left(b: _Builder, p: Formula, impl: int) -> int:
    """From X imp Y: (P or X) imp (P or Y)."""
    f = b.formula_at(impl)
    assert isinstance(f, Bin) and f.op is _IMP
    hit = b.memo.get(_imp(_disj(p, f.left), _disj(p, f.right)))
    if hit is not None:
        return hit
    four = b.axiom(4, A=p, B=f.left, C=f.right)
    return b.mp(four, impl)


def _cases(b: _Builder, impl: int, line: int) -> int:
    """From X imp Y and a line X or A: A or Y."""
    f = b.formula_at(line)
    assert isinstance(f, Bin) and f.op is _OR
    swapped = b.mp(b.axiom(3, A=f.left, B=f.right), line)  # A or X
    return b.mp(_sum_left(b, f.right, impl), swapped)


def _add_right(b: _Builder, a: Formula, p: Formula) -> int:
    """A imp (P or A)"""
    hit = b.memo.get(_imp(a, _disj(p, a)))
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
    swap = b.axiom(3, A=a, B=y)  # (A or Y) imp (Y or A)
    doubled = _syl(b, swap, _sum_left(b, y, impl))  # (A or Y) imp (Y or Y)
    return _syl(b, doubled, b.axiom(1, A=y))


def _exch(b: _Builder, a: Formula, c: Formula, d: Formula) -> int:
    """(A or (C or D)) imp (C or (A or D))"""
    grow = _add_right(b, d, a)  # D imp (A or D)
    lifted = _sum_left(b, c, grow)  # (C or D) imp inner, inner = C or (A or D)
    lifted = _sum_left(b, a, lifted)  # (A or (C or D)) imp (A or inner)
    into = _syl(b, b.axiom(2, A=a, B=d), _add_right(b, _disj(a, d), c))
    # into: A imp inner
    drop = _absorb(b, into)  # (A or inner) imp inner
    return _syl(b, lifted, drop)


def _dni(b: _Builder, a: Formula) -> int:
    """A imp !!A"""
    hit = b.memo.get(_imp(a, Not(Not(a))))
    if hit is not None:
        return hit
    return _fold_imp_root(b, _lem(b, Not(a)))


def _dne(b: _Builder, a: Formula) -> int:
    """!!A imp A"""
    if isinstance(a, Not):  # A = !W: fold !W or !!W, which _cases writes below, while it is new
        _dni(b, a.child)
    moved = _cases(b, _dni(b, Not(a)), _lem_flipped(b, a))  # A or !!!A
    return _fold_imp_root(b, b.mp(b.axiom(3, A=a, B=Not(Not(Not(a)))), moved))


def _sum_right(b: _Builder, p: Formula, impl: int) -> int:
    """From X imp Y: (X or P) imp (Y or P)."""
    f = b.formula_at(impl)
    spin = _syl(b, b.axiom(3, A=f.left, B=p), _sum_left(b, p, impl))  # (X or P) imp (P or Y)
    return _syl(b, spin, b.axiom(3, A=p, B=f.right))


def _contra(b: _Builder, impl: int) -> int:
    """From X imp Y: !Y imp !X."""
    f = b.formula_at(impl)
    via = _syl(b, impl, _dni(b, f.right))  # X imp !!Y, whose !X or !!Y is on a line
    unfolded = _def_step(b, via, _IMP, (), Direction.UNFOLD)
    return _fold_imp_root(b, b.mp(b.axiom(3, A=Not(f.left), B=Not(Not(f.right))), unfolded))


def _assoc(b: _Builder, x: Formula, y: Formula, z: Formula, forward: bool) -> int:
    """((X or Y) or Z) imp (X or (Y or Z)), or backward its converse."""
    if forward:
        spin = _syl(b, b.axiom(3, A=_disj(x, y), B=z), _exch(b, z, x, y))  # to X or (Z or Y)
        return _syl(b, spin, _sum_left(b, x, b.axiom(3, A=z, B=y)))
    swap = _syl(b, _sum_left(b, x, b.axiom(3, A=y, B=z)), _exch(b, x, z, y))  # to Z or (X or Y)
    return _syl(b, swap, b.axiom(3, A=z, B=_disj(x, y)))


def _nor_intro(b: _Builder, g: Formula, h: Formula) -> int:
    """!G imp (!H imp !(G or H))"""
    z = Not(_disj(g, h))
    lem = _lem_flipped(b, _disj(g, h))  # Z or (G or H)
    split = b.mp(_exch(b, z, g, h), lem)  # G or (Z or H)
    moved = _cases(b, _dni(b, g), split)  # (Z or H) or !!G
    inner = _syl(b, _sum_left(b, z, _dni(b, h)), b.axiom(3, A=z, B=Not(Not(h))))
    # inner: (Z or H) imp (!!H or Z)
    step2 = _cases(b, inner, moved)  # !!G or (!!H or Z)
    folded = _def_step(b, step2, _IMP, (Step.RIGHT,), Direction.FOLD)
    return _fold_imp_root(b, folded)


def _dist(b: _Builder, x: Formula, u: Formula, v: Formula, forward: bool) -> int:
    """(X or !(U or V)) imp !(!(X or !U) or !(X or !V)), or backward its converse.

    With L the premise, two lines L imp ... unfold into nest(guards, !G) and
    nest(guards, !H), and _guarded_mp takes them through _nor_intro(G, H) to
    nest(guards, !(G or H)), which folds into the theorem.  Forward, G and H
    are !(X or !U) and !(X or !V), under the guard !L; backward, they are U
    and V, under the guards !L and X."""
    cu, cv = _disj(x, Not(u)), _disj(x, Not(v))
    if forward:  # L imp !!(X or !U) from !(U or V) imp !U, lifted by X
        g, h = Not(cu), Not(cv)
        guards = (Not(_disj(x, Not(_disj(u, v)))),)
        parts = [_syl(b, _sum_left(b, x, _contra(b, grow)), _dni(b, c))
                 for grow, c in ((b.axiom(2, A=u, B=v), cu), (_add_right(b, v, u), cv))]
    else:  # L imp (X or !U) from L imp !!(X or !U)
        g, h = u, v
        guards = (Not(Not(_disj(Not(cu), Not(cv)))), x)
        parts = [_syl(b, _contra(b, grow), _dne(b, c))
                 for grow, c in ((b.axiom(2, A=Not(cu), B=Not(cv)), cu),
                                 (_add_right(b, Not(cv), Not(cu)), cv))]
    g_arg, h_arg = (_def_step(b, part, _IMP, (), Direction.UNFOLD) for part in parts)
    curried = b.mp(_lift_under(b, guards, _nor_intro(b, g, h)), g_arg)
    return _fold_imp_root(b, _guarded_mp(b, guards, curried, h_arg, Not(h), Not(_disj(g, h))))


# ---------------------------------------------------------------------------
# Guarded-clause plumbing.


def _lift_under(b: _Builder, guards: tuple[Formula, ...], impl: int) -> int:
    for g in reversed(guards):
        impl = _sum_left(b, g, impl)
    return impl


def _widen(
    b: _Builder, idx: int, have: tuple[Formula, ...], want: tuple[Formula, ...]
) -> int:
    """From nest(have, body): nest(want, body), where ``have`` lists some of
    ``want``'s guards in ``want``'s order.  Each missing guard, outermost
    first, goes in as _add_right of the tail, lifted under the guards before
    it."""
    tail = b.formula_at(idx)
    j = 0
    for i, g in enumerate(want):
        if j < len(have) and have[j] is g:
            j += 1
        else:
            idx = b.mp(_lift_under(b, want[:i], _add_right(b, tail, g)), idx)
            tail = _disj(g, tail)
        tail = tail.right
    return idx


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
    flipped = _cases(b, bridge, arg_front)  # residue or goal
    residue = _lift_under(b, guards[:-1], b.axiom(2, A=guards[-1], B=z))  # residue imp goal
    doubled = _cases(b, residue, flipped)  # goal or goal
    return b.mp(b.axiom(1, A=goal), doubled)


# ---------------------------------------------------------------------------
# Branches and case elimination.


def _derive_branch(b: _Builder, nodes: list[Formula], values: dict[str, int]) -> int:
    """nest(guards(v), f0) for the full assignment v (a true branch), where
    f0 is the last of ``nodes``, its subformulas in ``subformulas`` order.

    Each node is derived under ``own[node]``, its own atoms' guards, and a
    disjunction widens its operands' lines to its own.  Lines come in the
    order of the natural recursion: a node's lemma, its operands' lines,
    then the step joining them.  A todo entry (node, None) enters a node
    and (node, lemma) finishes it; lemma 0 stands for none.  A node that an
    earlier branch derived is walked again, each of its steps a memo hit.
    """
    # newest atom first: the last atom's literal is outermost, so the case
    # split on it finds it in front
    guards = tuple(Not(Atom(n)) if v else Atom(n) for n, v in reversed(values.items()))
    value = _fill_columns(nodes, values, 1)
    own: dict[Formula, tuple[Formula, ...]] = {}
    for node in nodes:
        if isinstance(node, Atom):
            own[node] = (Not(node) if values[node.name] else node,)
        elif isinstance(node, Not):
            own[node] = own[node.child]
        else:
            both = own[node.left] + own[node.right]
            own[node] = tuple(g for g in guards if g in both)
    line: dict[Formula, int] = {}
    todo: list[tuple[Formula, int | None]] = [(nodes[-1], None)]
    while todo:
        node, lemma = todo.pop()
        mine = own[node]
        if lemma is None and node in line:
            continue
        if isinstance(node, Atom):
            line[node] = _lem_flipped(b, node) if values[node.name] else _lem(b, node)
        elif isinstance(node, Not):
            x = node.child
            if lemma is None:
                todo += ((node, _dni(b, x) if value[x] else 0), (x, None))
            else:  # a false child's signed form is this very formula
                arg = line[x]
                line[node] = b.mp(_lift_under(b, mine, lemma), arg) if lemma else arg
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
                x = g if value[g] else h
                arg = _widen(b, line[x], own[x], mine)
                line[node] = b.mp(_lift_under(b, mine, lemma), arg)
            else:  # widen h first, so that _guarded_mp unfolds the newest line
                arg = _widen(b, line[h], own[h], mine)
                intro = _nor_intro(b, g, h)
                g_arg = _widen(b, line[g], own[g], mine)
                curried = b.mp(_lift_under(b, mine, intro), g_arg)
                line[node] = _guarded_mp(b, mine, curried, arg, Not(h), Not(node))
    return line[nodes[-1]]


def _by_cases(b: _Builder, f0: Formula) -> int:
    """f0 by the case split; raises TooManyAtoms past GENERATOR_ATOM_LIMIT,
    else NotATautology.  f0 has the goal's atoms, in order, and truth table.

    One loop over the table's rows, the last atom changing fastest.  A
    row's branch is a half of the split on its last atom q: at q = 1 the on
    half !q or D, which folds into the bridge q imp D and waits; at q = 0
    the off half q or D, which the newest bridge resolves to D or D, and
    AX1 to D, itself a half of the split on the atom before q."""
    names = atoms_of(f0)
    if len(names) > GENERATOR_ATOM_LIMIT:
        raise TooManyAtoms(len(names), GENERATOR_ATOM_LIMIT)
    if (row := first_row(f0, 0)) is not None:
        raise NotATautology(row)
    nodes, bridges = subformulas(f0), []
    for values in assignments(names):
        idx = _derive_branch(b, nodes, values)
        for value in reversed(values.values()):
            if value:  # folded while the on half is the last line
                bridges.append(_fold_imp_root(b, idx))
                break
            bridge = bridges.pop()
            doubled = _cases(b, bridge, idx)  # D or D
            idx = b.mp(b.axiom(1, A=b.formula_at(bridge).right), doubled)
    return idx


# ---------------------------------------------------------------------------
# The rewrite route: an equivalence whose sides share a normal form under
# !!X -> X and (X or Y) or Z -> X or (Y or Z).


def _normal_forms(f: Formula) -> dict[Formula, Formula]:
    """The normal form of each subformula of the primitive formula ``f``."""
    nf: dict[Formula, Formula] = {}
    for node in subformulas(f):
        if isinstance(node, Atom):
            nf[node] = node
        elif isinstance(node, Not):
            child = nf[node.child]
            nf[node] = child.child if isinstance(child, Not) else Not(child)
        else:  # the left operand's chain, ending in the right operand's form
            items, out = [nf[node.left]], nf[node.right]
            while isinstance(items[-1], Bin):
                items[-1:] = items[-1].left, items[-1].right
            for x in reversed(items):
                out = _disj(x, out)
            nf[node] = out
    return nf


def _chain(b: _Builder, impls: list[int | None]) -> int | None:
    """X0 imp Xk from X0 imp X1 ... Xk-1 imp Xk; a None is an identity."""
    out = None
    for impl in filter(None, impls):
        out = impl if out is None else _syl(b, out, impl)
    return out


def _normalise(b: _Builder, f: Formula, forward: bool, nf: dict, done: dict) -> int | None:
    """f imp nf(f), or backward nf(f) imp f; None where f is normal.

    Top-down over an explicit stack: a node is rewritten at its root, or at
    its left operand's, until neither is !!X and the left operand is no
    disjunction (k - 2 rotations for a left comb of k operands).  Then its
    operands are normalised and lifted into it by _sum_right, _sum_left, or
    under a negation _contra of the other direction.  ``done`` keeps each
    (node, direction) result."""
    todo: list = [(f, forward, None)]
    while todo:
        node, fwd, entry = todo.pop()
        if entry is None:
            if (node, fwd) in done:
                continue
            steps, cur = [], node
            while True:
                x = cur.left if isinstance(cur, Bin) else cur
                if isinstance(x, Not) and isinstance(x.child, Not):
                    z = x.child.child
                    step = _dne(b, z) if fwd else _dni(b, z)
                    if x is not cur:
                        step, z = _sum_right(b, cur.right, step), _disj(z, cur.right)
                elif isinstance(x, Bin):
                    step = _assoc(b, x.left, x.right, cur.right, fwd)
                    z = _disj(x.left, _disj(x.right, cur.right))
                else:
                    break
                steps.append(step)
                cur = z
            todo.append((node, fwd, (steps, cur)))
            if isinstance(cur, Not):
                todo.append((cur.child, not fwd, None))
            elif isinstance(cur, Bin):
                todo += ((cur.right, fwd, None), (cur.left, fwd, None))
            continue
        steps, cur = entry  # below, "x and lift(x)" is None for a normal operand
        if isinstance(cur, Not):
            inner = done[cur.child, not fwd]
            steps.append(inner and _contra(b, inner))
        elif isinstance(cur, Bin):
            left, right = done[cur.left, fwd], done[cur.right, fwd]
            steps.append(left and _sum_right(b, cur.right, left))
            steps.append(right and _sum_left(b, nf[cur.left], right))
        done[node, fwd] = _chain(b, steps if fwd else steps[::-1])
    return done[f, forward]


def _distribution(a: Formula, c: Formula, nf: dict) -> tuple | None:
    """(side, D, (x, u, v), negated) where one distribution step, at the root
    of the side's normal form or under one negation there, turns
    x or !(u or v) into D's !(!(x or !u) or !(x or !v)), and D has the other
    side's normal form; None where neither side gives that."""
    for side, other in ((a, c), (c, a)):
        s = nf[side]
        negated = isinstance(s, Not)
        match s.child if negated else s:
            case Bin(_, x, Not(Bin(_, u, v))):
                d = Not(_disj(Not(_disj(x, Not(u))), Not(_disj(x, Not(v)))))
                d = Not(d) if negated else d
                if _normal_forms(d)[d] is nf[other]:
                    return side, d, (x, u, v), negated
    return None


def _rewrite_route(b: _Builder, f0: Formula) -> int | None:
    """f0 = !(!(!A or B) or !(!B or A)), the primitive form of A iff B, from
    A imp B and B imp A, each chained through the sides' normal form; None,
    with no line written, unless f0 has that shape and A and B one form, or
    forms one _distribution step apart."""
    match f0:
        case Not(Bin(_, Not(Bin(_, Not(a), c)), Not(Bin(_, Not(c2), a2)))) if (a2, c2) == (a, c):
            nf = _normal_forms(f0)
        case _:
            return None
    via = None
    if nf[a] is not nf[c]:
        via = _distribution(a, c, nf)
        if via is None:
            return None
        side, d, operands, under_not = via
        nf.update(_normal_forms(d))
    done, negated = {}, []
    for x, y in ((a, c), (c, a)):
        to_y = [_normalise(b, x, True, nf, done)]
        if via:  # nf(x) imp D imp nf(D) from the distributed side, back the other way
            fwd = x is side
            step = _dist(b, *operands, fwd != under_not)  # negated: _contra of the converse
            step = _contra(b, step) if under_not else step
            if fwd:
                to_y += step, _normalise(b, d, True, nf, done)
            else:
                to_y += _normalise(b, d, False, nf, done), step
        to_y.append(_normalise(b, y, False, nf, done))
        disj = _def_step(b, _chain(b, to_y) or _imp_self(b, x), _IMP, (), Direction.UNFOLD)
        negated.append(b.mp(_dni(b, b.formula_at(disj)), disj))  # !!(!X or Y)
    g, h = (b.formula_at(idx).child for idx in negated)
    return b.mp(b.mp(_nor_intro(b, g, h), negated[0]), negated[1])


# ---------------------------------------------------------------------------
# The clause route: a disjunction that holds some X and also !X, as
# Hilbert-Ackermann derive every tautological clause from X or !X.


def _clause_route(b: _Builder, f0: Formula) -> int | None:
    """f0 from X or !X, where X and !X both lie on the disjunct spine of f0:
    f0, the operands of each disjunction on it and Y under each !!Y on it.

    Each spine node on the way down to X and to !X gets node imp f0 once,
    top-down, from its parent's: AX2 for a left operand, _add_right for a
    right one, _dni under !!, each chained by _syl.  Two _cases against
    _lem(X) give f0 or f0, and AX1 gives f0.  None, with no line written,
    where no such pair lies on the spine."""
    parent: dict[Formula, Formula | None] = {f0: None}  # spine node -> parent where first met
    todo = [f0]
    while todo:
        node = todo.pop()
        if isinstance(node, Bin):
            kids = (node.right, node.left)
        elif isinstance(node, Not) and isinstance(node.child, Not):
            kids = (node.child.child,)
        else:
            continue
        for kid in kids:
            if kid not in parent:
                parent[kid] = node
                todo.append(kid)
    neg = next((n for n in parent if isinstance(n, Not) and n.child in parent), None)
    if neg is None:
        return None
    to_f0: dict[Formula, int | None] = {f0: None}  # node imp f0; f0 needs none
    for end in (neg.child, neg):
        path = []
        while end not in to_f0:
            path.append(end)
            end = parent[end]
        for node in reversed(path):
            up = parent[node]
            if isinstance(up, Not):
                step = _dni(b, node)
            elif up.left is node:
                step = b.axiom(2, A=node, B=up.right)
            else:
                step = _add_right(b, node, up.left)
            to_f0[node] = _chain(b, [step, to_f0[up]])
    flipped = _cases(b, to_f0[neg.child], _lem(b, neg.child))  # !X or f0
    doubled = _cases(b, to_f0[neg], flipped)  # f0 or f0
    return b.mp(b.axiom(1, A=f0), doubled)


# ---------------------------------------------------------------------------
# Entry points.


def _unfold_plan(f: Formula) -> tuple[Formula, list[tuple[Operator, Path]]]:
    """Rewrite ``f`` into the primitive not/or language, recording steps: a
    preorder walk unfolds each defined connective where it meets one, and
    an exit entry rebuilds each ``!``/``or`` over its operands' forms."""
    steps: list[tuple[Operator, Path]] = []
    done: list[Formula] = []  # the forms of the operands walked, in order
    todo: list = [((), f)]
    while todo:
        path, node = todo.pop()
        if path is None:  # an exit entry: node is Not or _disj
            k = 1 if node is Not else 2
            done[-k:] = [node(*done[-k:])]
            continue
        while isinstance(node, Bin) and node.op is not _OR:
            steps.append((node.op, path))
            node = definiens(node.op, node.left, node.right)
        if isinstance(node, Atom):
            done.append(node)
        elif isinstance(node, Not):
            todo += ((None, Not), (path + (Step.CHILD,), node.child))
        else:
            todo += ((None, _disj), (path + (Step.RIGHT,), node.right), (path + (Step.LEFT,), node.left))
    return done[0], steps


def _prove(f: Formula, *methods) -> Proof:
    """A proof of ``f`` by the first of ``methods`` whose method(b, f0) gives
    a line of the primitive goal f0, not None; then f0 is folded back."""
    f0, steps = _unfold_plan(f)
    b = _Builder()
    for method in methods:
        idx = method(b, f0)
        if idx is not None:
            break
    else:
        raise ValueError(f"no method given proves {f!r}")
    b.cut(idx)  # so the fold-back starts on the last line and copies none
    for op, path in reversed(steps):
        idx = _def_step(b, idx, op, path, Direction.FOLD)
    return Proof(goal=f, lines=b.lines[:idx])  # an older goal line ends the proof


def prove_tautology(f: Formula) -> Proof:
    """A checkable proof of ``f`` by the rewrite route, else the clause route,
    else the case split; raises NotATautology with a countermodel, and
    TooManyAtoms past GENERATOR_ATOM_LIMIT where neither route applies."""
    return _prove(f, _rewrite_route, _clause_route, _by_cases)


def prove_by_cases(f: Formula) -> Proof:
    """A checkable proof of ``f`` by Kalmár's case split alone, whatever its
    shape; raises NotATautology with a countermodel, and TooManyAtoms past
    GENERATOR_ATOM_LIMIT."""
    return _prove(f, _by_cases)


def regrouping_goals(n: int) -> list[Formula]:
    """ρ-assoc over n >= 2 operands, for nor and then for nand:
    p1 op !(p2 op !(... op !(pn-1 op pn))) iff !(...!(p1 op p2) op ...) op pn,
    over p, q, r at n = 3 (main results (a) and (b)), else over p1 ... pn."""
    if n < 2:
        raise ValueError(f"a regrouping needs at least 2 operands, not {n}")
    ps = [Atom(x) for x in ("p", "q", "r")] if n == 3 else [Atom(f"p{i}") for i in range(1, n + 1)]
    goals = []
    for op in (Operator.NOR, Operator.NAND):
        by_right, by_left = Bin(op, ps[-2], ps[-1]), Bin(op, ps[0], ps[1])
        for x in reversed(ps[:-2]):
            by_right = Bin(op, x, Not(by_right))
        for x in ps[2:]:
            by_left = Bin(op, Not(by_left), x)
        goals.append(Bin(Operator.IFF, by_right, by_left))
    return goals


def main_result_goals() -> list[Formula]:
    """The four nor/nand regrouping biconditionals, in presentation order:
    ρ-assoc (a) and (b), then ρ-dist (c) and (d)."""
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    dist = [
        Bin(Operator.IFF, Bin(op, p, Not(Bin(co, q, r))),
            Bin(co, Not(Bin(op, p, q)), Not(Bin(op, p, r))))
        for op, co in ((Operator.NOR, Operator.NAND), (Operator.NAND, Operator.NOR))
    ]
    return regrouping_goals(3) + dist


def prove_main_results() -> list[Proof]:
    return [prove_tautology(goal) for goal in main_result_goals()]
