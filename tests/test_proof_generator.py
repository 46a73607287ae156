import hashlib
import random

import pytest

import plogic.proof.prover
from plogic import Atom, Bin, Not, Operator, atoms_of, is_tautology, parse
from plogic.errors import NotATautology, ProofTooLarge, TooManyAtoms
from plogic.proof import (
    AxiomJust,
    DefJust,
    MPJust,
    check_proof,
    main_result_goals,
    proof_to_json,
    proof_to_text,
    prove_by_cases,
    prove_main_results,
    prove_tautology,
    regrouping_goals,
)
from plogic.proof.prover import _clause_route, _prove, _rewrite_route

from oracle import bit_is_tautology, random_formula
from goldens import B_TEXTS, M_TEXTS


def test_smallest_classical_tautology():
    proof = prove_tautology(parse("p or !p"))
    assert check_proof(proof).accepted
    assert proof.lines[-1].formula == parse("p or !p")


def test_negated_regrouping_formula_is_provable():
    proof = prove_tautology(Not(parse(B_TEXTS[1])))
    assert check_proof(proof).accepted


def test_non_tautology_reports_a_countermodel():
    with pytest.raises(NotATautology) as exc:
        prove_tautology(parse("p and !p"))
    assert exc.value.witness in ({"p": 1}, {"p": 0})


def test_atom_limit():
    """GENERATOR_ATOM_LIMIT binds the case split: an 11-atom clause holding
    x0 and !x0 proves by the clause route, but not by cases, and an 11-atom
    goal that no route takes is refused."""
    xs = [Atom(f"x{i}") for i in range(11)]
    wide, backward = xs[0], xs[-1]
    for i in range(1, 11):
        wide, backward = Bin(Operator.OR, wide, xs[i]), Bin(Operator.OR, backward, xs[-1 - i])
    clause = Bin(Operator.OR, wide, Not(xs[0]))
    assert check_proof(prove_tautology(clause)).accepted
    with pytest.raises(TooManyAtoms):
        prove_by_cases(clause)
    with pytest.raises(TooManyAtoms):  # the sides' or-chains differ by commutation
        prove_tautology(Bin(Operator.IFF, wide, backward))


def test_line_guardrail(monkeypatch):
    monkeypatch.setattr(plogic.proof.prover, "MAX_PROOF_LINES", 100)
    with pytest.raises(ProofTooLarge, match="^proof exceeds the 100-line guardrail$"):
        prove_tautology(parse(M_TEXTS[1]))


def test_deterministic_output():
    goal = parse("(p imp q) or (q imp p)")
    first = prove_tautology(goal)
    second = prove_tautology(goal)
    assert first == second


def test_main_result_goals_match_the_golden_forms():
    assert [g for g in main_result_goals()] == [parse(M_TEXTS[i]) for i in range(1, 5)]


def test_main_result_goals_parallel_their_xor_negations():
    from plogic import Bin, Operator, is_parallel

    for goal, b_text in zip(main_result_goals(), B_TEXTS.values()):
        assert is_parallel(Not(parse(b_text)), goal).holds
        assert Not(Bin(Operator.XOR, goal.left, goal.right)) == Not(parse(b_text))


def test_every_line_of_an_accepted_proof_is_a_tautology():
    proof = prove_tautology(parse("(p and q) imp (q and p)"))
    assert check_proof(proof).accepted
    for line in proof.lines:
        assert is_tautology(line.formula)


def test_random_tautology_corpus_is_accepted(rng):
    """100 random 3-atom tautologies, accepted, with their total line count
    and the sha256 of their concatenated texts pinned: a lemma refactor that
    changes any of these proofs shows here."""
    names = ["p", "q", "r"]
    accepted = lines = 0
    digest = hashlib.sha256()
    while accepted < 100:
        f = random_formula(rng, names, 4)
        if not bit_is_tautology(f):
            continue
        proof = prove_tautology(f)
        result = check_proof(proof)
        assert result.accepted, f"rejected at {result.line}: {result.reason}"
        accepted += 1
        lines += len(proof.lines)
        digest.update(proof_to_text(proof).encode("utf-8"))
    assert (lines, digest.hexdigest()) == (
        69719, "30dce99c2cc8a691bd6da25b6f77eafba80aaa06551f8f8214f8502879ccf2cd"
    )


def test_a_case_split_ends_on_an_older_goal_line():
    """By cases, the primitive goal !q or (!!(!(p or q) or !r) or q) is
    already the !X or Z line of an early _add_right, which the split's last
    MP finds in the memo.  The proof ends there and folds back from it, with
    no copy: it is the clause route's proof, and no formula repeats."""
    goal = parse("q imp (((p nor q) nor !r) imp q)")
    proof = prove_by_cases(goal)
    assert check_proof(proof).accepted
    assert proof == prove_tautology(goal)
    formulas = [line.formula for line in proof.lines]
    assert len(formulas) == len(set(formulas)) == 17


def test_the_one_copied_line_is_accepted(monkeypatch):
    """On the rewrite route, _dne's _lem_flipped finds the line it would
    unfold, (q or q) imp (q or q), already written as an AX3 instance, so
    _def_step copies it once: the only formula that repeats in the proof."""
    copies = []
    real_copy = plogic.proof.prover._copy

    def counted(b, idx):
        copies.append(idx)
        return real_copy(b, idx)

    monkeypatch.setattr(plogic.proof.prover, "_copy", counted)
    proof = prove_tautology(parse(
        "!(p imp (!(q or q) imp !(q or s))) iff !!!!!(p imp !!(!(q or q) imp !(q or s)))"
    ))
    assert check_proof(proof).accepted
    assert (len(proof.lines), len(copies)) == (510, 1)
    formulas = [line.formula for line in proof.lines]
    assert len(formulas) - len(set(formulas)) == 1


def test_case_step_resolves_an_implication_against_a_disjunction():
    """From X imp Y and a line X or A, _cases derives A or Y in five lines:
    AX3 and its MP, then AX4 and two MPs."""
    from plogic import Operator
    from plogic.proof.objects import Direction, Proof
    from plogic.proof.prover import _Builder, _cases, _def_step

    b = _Builder()
    p, q, r = parse("p"), parse("q"), parse("r")
    unfold = (Operator.IMP, (), Direction.UNFOLD)
    line = _def_step(b, b.axiom(2, A=p, B=q), *unfold)  # !p or (p or q)
    impl = b.axiom(2, A=Not(p), B=r)  # !p imp (!p or r)
    before = len(b.lines)
    out = _cases(b, impl, line)
    assert (out, len(b.lines) - before) == (len(b.lines), 5)
    assert b.formula_at(out) == parse("(p or q) or (!p or r)")
    assert check_proof(Proof(goal=b.formula_at(out), lines=b.lines)).accepted


def test_widening_inserts_each_missing_guard_outermost_first():
    """_widen turns nest((g1, g3), body) into nest((g0, g1, g2, g3, g4), body),
    a guard going in in front, between and behind.  Each insertion costs
    _add_right's seven lines, an AX4 and an MP per guard it is lifted under,
    and its MP: 8 + 12 + 16 lines."""
    from plogic import Operator
    from plogic.proof.objects import Direction, Proof
    from plogic.proof.prover import _Builder, _def_step, _nest, _widen

    b = _Builder()
    g0, g1, g2, g3, g4 = (parse(t) for t in ["a", "!b", "c", "b", "e"])
    body = parse("q")
    line = _def_step(b, b.axiom(2, A=g3, B=body), Operator.IMP, (), Direction.UNFOLD)
    assert b.formula_at(line) == _nest((g1, g3), body)  # !b or (b or q)
    before = len(b.lines)
    out = _widen(b, line, (g1, g3), (g0, g1, g2, g3, g4))
    assert (out, len(b.lines) - before) == (len(b.lines), 36)
    assert b.formula_at(out) == _nest((g0, g1, g2, g3, g4), body)
    assert check_proof(Proof(goal=b.formula_at(out), lines=b.lines)).accepted


def test_proofs_use_only_the_three_rule_kinds():
    proof = prove_tautology(parse("p imp p"))
    assert all(
        isinstance(line.just, (AxiomJust, MPJust, DefJust)) for line in proof.lines
    )


DEFINED_CONNECTIVE_GOALS = [
    "p xiff p",
    "!(p nimp p)",
    "!(p nor !p)",
    "(p nand q) iff !(p and q)",
    "!((p xor q) xiff !(p xor q))",
]
FOUR_ATOM_GOAL = "((a or b) or (c or d)) iff ((d or c) or (b or a))"


def test_goals_with_every_defined_connective():
    for text in DEFINED_CONNECTIVE_GOALS:
        proof = prove_tautology(parse(text))
        result = check_proof(proof)
        assert result.accepted, (text, result.reason)


def test_four_atom_goal():
    proof = prove_tautology(parse(FOUR_ATOM_GOAL))
    assert check_proof(proof).accepted


# Line counts and sha256 digests of the four main-result proofs, as text and
# as JSON.  A change that alters these proofs on purpose updates them here and
# says why.
MAIN_RESULT_PROOFS = [
    (
        421,
        "3300d7bdaeb926d78434d1f8c115a8703d428cb7ca93dba6929ef25ed6e5a0f0",
        "a947e24c32399e0938e8322c9ccfd88b975c9ac0d9094d1ef20a01b75e7e758a",
    ),
    (
        555,
        "86579b103ae0bb56f3187c3d2f332747516fa60dca2d8352d29c725df99df599",
        "5c8363c7381e15fd5d7f596cf0fb469a2119e8e9896ad39371a351d940503318",
    ),
    (
        1110,
        "e4c6ba0f96d98e067692120ad45dc6021fd8078ec089f44ad0b5f2d0ecf2c90f",
        "3617bc0cae17442177a1a65d31686ce20061870b3857bfff1a2ad8008caadf57",
    ),
    (
        877,
        "b5e4021933d75b6a76c5129c9b78903b69f2a6f547d34ffca3d51ca1f4443cf6",
        "99ae1db38af51ae0ddcb5a7c7e1d8873f1a37794f4ee8f2065802c33128757bc",
    ),
]


def test_main_result_proofs_are_pinned():
    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    found = [
        (len(proof.lines), sha256(proof_to_text(proof)), sha256(proof_to_json(proof)))
        for proof in prove_main_results()
    ]
    assert found == MAIN_RESULT_PROOFS


def test_no_line_repeats_an_earlier_formula():
    """A generated proof never copies a line: each formula is new."""
    texts = ["!" * 1100 + "(p or !p)", "p or !p", "p imp p", "q imp (q iff q)",
             *DEFINED_CONNECTIVE_GOALS, FOUR_ATOM_GOAL, *DUALITY_IDENTITIES]
    for proof in prove_main_results() + [prove_tautology(parse(t)) for t in texts]:
        formulas = [line.formula for line in proof.lines]
        assert len(set(formulas)) == len(formulas), proof.goal


# The 2-atom duality identities (X op Y) iff !(X dual(op) Y), one per
# fundamental connective, in the shape of the benchmark's prove inputs.
DUALITY_IDENTITIES = [
    "(p or !q) iff !(p nor !q)",
    "!(!p nand q) iff (!p and q)",
    "(q imp !p) iff !(q nimp !p)",
    "!(!p xor !q) iff (!p iff !q)",
]


def _accepted_without_repeats(proof):
    result = check_proof(proof)
    assert result.accepted, (proof.goal, result.line, result.reason)
    formulas = [line.formula for line in proof.lines]
    assert len(set(formulas)) == len(formulas), proof.goal


def test_regrouping_goals_at_three_operands_are_main_results_a_and_b():
    assert regrouping_goals(3) == main_result_goals()[:2]
    assert regrouping_goals(4)[0] == parse(
        "(p1 nor !(p2 nor !(p3 nor p4))) iff (!(!(p1 nor p2) nor p3) nor p4)"
    )
    assert all(bit_is_tautology(g) for n in range(2, 7) for g in regrouping_goals(n))
    with pytest.raises(ValueError):
        regrouping_goals(1)


def test_regrouping_family_proves_by_the_rewrite_route():
    """Up to 16 operands, past GENERATOR_ATOM_LIMIT.  Rotating each or-chain
    at its root keeps the proofs linear in n: each operand adds the same
    number of lines, and n = 16 stays under 6,000."""
    sizes = []
    for n in range(3, 17):
        proofs = [_prove(goal, _rewrite_route) for goal in regrouping_goals(n)]
        for proof in proofs:
            _accepted_without_repeats(proof)
        sizes.append([len(proof.lines) for proof in proofs])
    for column in zip(*sizes):
        assert len({b - a for a, b in zip(column, column[1:])}) == 1, column
        assert column[-1] <= 6000


def test_every_line_of_a_rewrite_route_proof_is_a_tautology():
    goals = (regrouping_goals(3) + regrouping_goals(4) + main_result_goals()[2:]
             + [parse(t) for t in DUALITY_IDENTITIES])
    for goal in goals:
        proof = _prove(goal, _rewrite_route)
        _accepted_without_repeats(proof)
        assert all(bit_is_tautology(line.formula) for line in proof.lines), goal


def test_a_goal_whose_sides_differ_in_normal_form_falls_back_to_the_case_split():
    # the two sides are one or-chain only up to commutation
    assert len(prove_tautology(parse(FOUR_ATOM_GOAL)).lines) == 6393


def test_a_deep_double_negation_chain_takes_the_route():
    _accepted_without_repeats(_prove(parse("(" + "!" * 400 + "p) iff p"), _rewrite_route))


# (x, u, v) for _dist: atoms, the operands of main results (c) and (d), and
# degenerate ones where operands coincide or one negates another.
DIST_OPERANDS = [
    ("x", "u", "v"),
    ("p", "!q", "!r"),
    ("!p", "q", "r"),
    ("x", "u", "u"),
    ("x", "x", "v"),
    ("x", "!x", "v"),
]


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("operands", DIST_OPERANDS, ids=",".join)
def test_distribution_step_on_its_own(operands, forward):
    """_dist derives (x or !(u or v)) imp !(!(x or !u) or !(x or !v)), or the
    converse, from the existing lemmas alone, ending at its newest line.  The
    oracle confirms that both directions are tautologies."""
    from plogic import Bin, Operator
    from plogic.proof.objects import Proof
    from plogic.proof.prover import _Builder, _dist

    def disj(a, b):
        return Bin(Operator.OR, a, b)

    x, u, v = (parse(t) for t in operands)
    left = disj(x, Not(disj(u, v)))
    right = Not(disj(Not(disj(x, Not(u))), Not(disj(x, Not(v)))))
    goal = Bin(Operator.IMP, *((left, right) if forward else (right, left)))
    assert bit_is_tautology(goal)
    b = _Builder()
    out = _dist(b, x, u, v, forward)
    assert (out, b.formula_at(out)) == (len(b.lines), goal)
    _accepted_without_repeats(Proof(goal=goal, lines=b.lines))
    assert all(bit_is_tautology(line.formula) for line in b.lines)


# Line counts and sha256 text digests of proofs that the distribution step
# must leave alone.  The last two goals are one distribution apart, but below
# the root of a side, or only after a second distribution, so they go to the
# case split.
CASE_SPLIT_DISTRIBUTIONS = [
    "(q or (p or !(q or r))) iff (q or !(!(p or !q) or !(p or !r)))",
    "(p or !(q or (r or s))) iff !(!(p or !q) or !!(!(p or !r) or !(p or !s)))",
]
UNMOVED_PROOFS = {
    FOUR_ATOM_GOAL: (6393, "a2a7c3a14408d4f8491d7db369741459beaee8d684da3e2f425e86f2674180b3"),
    DUALITY_IDENTITIES[0]: (156, "9dbba46f99d111eb1c5c5511850a70c76153de653b924a6755dbfe8d51de00ed"),
    DUALITY_IDENTITIES[1]: (260, "a1401d5817ad87d9a1b3466363ffff039fe75cf10184437fce4809a6bfd82831"),
    DUALITY_IDENTITIES[2]: (160, "258dae7d9050efb5b8d8c5fa6827ed82890702e8b7d61416c2afadb3e5e7dd89"),
    DUALITY_IDENTITIES[3]: (449, "c3a7a3fd1aa5f62647e452d7b7a701aab564030df806b5442eb65d2546b69db0"),
    CASE_SPLIT_DISTRIBUTIONS[0]: (
        4347, "30cb68a85286568c00e8a3a47018e2e599d586aad5859ceb9bf63fbf55d0d9a1"
    ),
    CASE_SPLIT_DISTRIBUTIONS[1]: (
        10834, "8859b9612d35acdcaf04455871bed2404624880eed18b042e335016d83c29799"
    ),
    # no route takes a reversed or-chain: a 5-atom case split
    "(x1 or (x2 or (x3 or (x4 or x5)))) iff (x5 or (x4 or (x3 or (x2 or x1))))": (
        13185, "615ef99c0f8a9ac0b9294c7c53f9458ddbe4ed08a2dccb2722defd0884b76b13"
    ),
}


def test_proofs_off_the_distribution_step_are_pinned():
    found = {}
    for text in UNMOVED_PROOFS:
        proof = prove_tautology(parse(text))
        found[text] = (len(proof.lines), hashlib.sha256(proof_to_text(proof).encode()).hexdigest())
    assert found == UNMOVED_PROOFS


def test_a_distribution_off_the_root_goes_to_the_case_split():
    """The route writes no line before it gives up: the proof is the one
    the case split makes alone."""
    goals = [parse(t) for t in CASE_SPLIT_DISTRIBUTIONS]
    assert all(bit_is_tautology(g) for g in goals)
    routed = [proof_to_text(prove_tautology(g)) for g in goals]
    assert routed == [proof_to_text(prove_by_cases(g)) for g in goals]


# The clause route: a goal whose disjunct spine (the operands of each
# disjunction on it, and Y under each !!Y) holds some X and also !X.  The
# or-chains below hold x and !x among n operands; a1 ... an-2 fill the rest.
# Each spelling writes "a or b" with one connective.
OR_SPELLINGS = {
    "or": lambda a, b: Bin(Operator.OR, a, b),
    "imp": lambda a, b: Bin(Operator.IMP, Not(a), b),
    "and": lambda a, b: Not(Bin(Operator.AND, Not(a), Not(b))),
    "nor": lambda a, b: Not(Bin(Operator.NOR, a, b)),
    "nand": lambda a, b: Bin(Operator.NAND, Not(a), Not(b)),
    "nimp": lambda a, b: Not(Bin(Operator.NIMP, Not(a), b)),
}
PAIR_PLACES = {  # where x and !x stand among the n operands
    "ends": lambda n: (0, n - 1),
    "ends-reversed": lambda n: (n - 1, 0),
    "front": lambda n: (0, 1),
    "back": lambda n: (n - 2, n - 1),
    "middle": lambda n: (n // 2 - 1, n // 2),
}


def _clause_operands(n, place):
    operands = [Atom(f"a{i}") for i in range(1, n - 1)]
    for i, item in sorted(zip(PAIR_PLACES[place](n), (Atom("x"), Not(Atom("x"))))):
        operands.insert(i, item)
    return operands


def _bracket(operands, shape, join, rng=None):
    """Join the operands as a left comb, a right comb or, by ``rng``, any
    bracketing; ``join`` spells each disjunction."""
    items = list(operands)
    while len(items) > 1:
        if shape == "left":
            k = 0
        elif shape == "right":
            k = len(items) - 2
        else:
            k = rng.randrange(len(items) - 1)
        items[k:k + 2] = [join(items[k], items[k + 1])]
    return items[0]


CLAUSE_SIZES = [2, 3, 4, 5, 6, 7, 10, 25, 50, 100]


def _clause_bound(n):
    """Lines allowed to a clause route proof over n operands, linear in n:
    a disjunction spelled with a defined connective adds _dni steps."""
    return 45 * n + 60


@pytest.mark.parametrize("place", PAIR_PLACES)
@pytest.mark.parametrize("shape", ["left", "right", "seeded"])
def test_or_chains_take_the_clause_route(shape, place):
    """Up to 100 operands, past GENERATOR_ATOM_LIMIT.  From n = 4 on, a comb
    grows by the same number of lines per operand where the pair sits at
    its ends; every proof stays within _clause_bound.  For n <= 6 the oracle
    confirms that every line is a tautology."""
    rng = random.Random(f"{shape}:{place}")
    sizes = []
    for n in CLAUSE_SIZES:
        goal = _bracket(_clause_operands(n, place), shape, OR_SPELLINGS["or"], rng)
        proof = _prove(goal, _clause_route)
        _accepted_without_repeats(proof)
        assert len(proof.lines) <= _clause_bound(n), (n, len(proof.lines))
        if n <= 6:
            assert all(bit_is_tautology(line.formula) for line in proof.lines), goal
        sizes.append(len(proof.lines))
    if shape != "seeded" and place.startswith("ends"):
        steps = [(b - a) / (m - n) for a, b, n, m in
                 zip(sizes[2:], sizes[3:], CLAUSE_SIZES[2:], CLAUSE_SIZES[3:])]
        assert len(set(steps)) == 1, sizes


@pytest.mark.parametrize("spelling", [s for s in OR_SPELLINGS if s != "or"])
def test_clauses_spelled_with_defined_connectives_take_the_clause_route(spelling):
    """Every disjunction spelled with one connective, or (seeded) each with
    one of them all, up to 25 operands: unfolding and folding back a comb of
    defined connectives takes time quadratic in its depth.  For n <= 6 the
    oracle confirms that every line is a tautology."""
    rng = random.Random(spelling)
    join = OR_SPELLINGS[spelling]

    def mixed(a, b):
        return OR_SPELLINGS[rng.choice(list(OR_SPELLINGS))](a, b)

    for n in CLAUSE_SIZES[:-2]:
        for place in PAIR_PLACES:
            for shape, spell in (("left", join), ("right", join), ("seeded", mixed)):
                goal = _bracket(_clause_operands(n, place), shape, spell, rng)
                proof = _prove(goal, _clause_route)
                _accepted_without_repeats(proof)
                assert len(proof.lines) <= _clause_bound(n), (goal, len(proof.lines))
                if n <= 6:
                    assert all(bit_is_tautology(line.formula) for line in proof.lines), goal


@pytest.mark.parametrize("width", [11, 24])
def test_a_clause_past_the_atom_limit_proves(width):
    """A clause over 11 and 24 atoms, its pair !!x and !x in the middle,
    each disjunction spelled with a seeded choice of connective."""
    from plogic.proof import GENERATOR_ATOM_LIMIT

    names = [f"p{i}" for i in range(1, width)]
    operands = [Atom(n) if i % 2 else Not(Atom(n)) for i, n in enumerate(names)]
    operands[width // 2:width // 2] = [Not(Not(Atom("x"))), Not(Atom("x"))]
    rng = random.Random(width)
    goal = _bracket(operands, "seeded",
                    lambda a, b: OR_SPELLINGS[rng.choice(list(OR_SPELLINGS))](a, b), rng)
    assert len(atoms_of(goal)) == width > GENERATOR_ATOM_LIMIT
    _accepted_without_repeats(_prove(goal, _clause_route))


NO_PAIR_CLAUSES = [
    "(p and q) imp (q and p)",
    "(p or q) imp (q or p)",
    "p imp (q imp (p and q))",
    "!!(p or !!q) or !(p or q)",
]


def test_a_goal_that_no_given_method_takes_is_refused():
    """_prove does not fall back to the case split: the methods it is given
    are the only ones it tries."""
    with pytest.raises(ValueError, match="^no method given proves"):
        _prove(parse("p or !p"), _rewrite_route)
    with pytest.raises(ValueError, match="^no method given proves"):
        _prove(parse(FOUR_ATOM_GOAL), _rewrite_route, _clause_route)


def test_a_goal_with_no_pair_on_its_spine_takes_the_case_split():
    """The clause route writes no line before it gives up: the proof is the
    one the case split makes alone."""
    goals = [parse(t) for t in NO_PAIR_CLAUSES]
    assert all(bit_is_tautology(g) for g in goals)
    routed = [proof_to_text(prove_tautology(g)) for g in goals]
    assert routed == [proof_to_text(prove_by_cases(g)) for g in goals]
