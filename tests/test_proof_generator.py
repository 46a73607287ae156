import hashlib

import pytest

import plogic.proof.prover
from plogic import Not, is_tautology, parse
from plogic.errors import NotATautology, ProofTooLarge, TooManyAtoms
from plogic.proof import (
    AxiomJust,
    DefJust,
    MPJust,
    check_proof,
    main_result_goals,
    proof_to_json,
    proof_to_text,
    prove_main_results,
    prove_tautology,
)

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
    from plogic import Atom, Bin, Operator

    wide = Atom("x0")
    for i in range(1, 11):
        wide = Bin(Operator.OR, wide, Atom(f"x{i}"))
    with pytest.raises(TooManyAtoms):
        prove_tautology(Bin(Operator.OR, wide, Not(Atom("x0"))))


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
    names = ["p", "q", "r"]
    accepted = 0
    while accepted < 100:
        f = random_formula(rng, names, 4)
        if not bit_is_tautology(f):
            continue
        proof = prove_tautology(f)
        result = check_proof(proof)
        assert result.accepted, f"rejected at {result.line}: {result.reason}"
        accepted += 1


def test_proofs_use_only_the_three_rule_kinds():
    proof = prove_tautology(parse("p imp p"))
    assert all(
        isinstance(line.just, (AxiomJust, MPJust, DefJust)) for line in proof.lines
    )


def test_goals_with_every_defined_connective():
    for text in [
        "p xiff p",
        "!(p nimp p)",
        "!(p nor !p)",
        "(p nand q) iff !(p and q)",
        "!((p xor q) xiff !(p xor q))",
    ]:
        proof = prove_tautology(parse(text))
        result = check_proof(proof)
        assert result.accepted, (text, result.reason)


def test_four_atom_goal():
    proof = prove_tautology(parse("((a or b) or (c or d)) iff ((d or c) or (b or a))"))
    assert check_proof(proof).accepted


# Line counts and sha256 digests of the four main-result proofs, as text and
# as JSON.  A change that alters these proofs on purpose updates them here and
# says why.
MAIN_RESULT_PROOFS = [
    (
        3944,
        "a8b516d6daf5fa518d9f3a712b071619b315275d4f60c4a3bd50e0174e182f11",
        "e466c3195e9c318a108f30c8a3f835cc47b6b7ff1e34063e2d2dda49bc9af1bd",
    ),
    (
        4142,
        "8848fd55981578b7c7b443266d3c3d3fc2e548a08408d9b89fc22b685940d610",
        "cee9803bb42e546e160cd19adee0092da732e49c762b388b2fafa0274816ddac",
    ),
    (
        5865,
        "b7b81d9295970a8f535deca8f344b5bc955089becf9ac8e470cebcb0d221a413",
        "654fb757bd6b6aa485484619525af56a9d3a52aa20ef93050d72b4bbc436d3f8",
    ),
    (
        5886,
        "9e28ba8c79acdd9f984ab7acb231bf6eda193ac994eb019d903e86fb066e0bef",
        "8a0c28c740abf78188fdf31c0d1bd2a2b491be059477882a897f97c33f855362",
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
    deep = prove_tautology(parse("!" * 1100 + "(p or !p)"))
    for proof in prove_main_results() + [deep]:
        formulas = [line.formula for line in proof.lines]
        assert len(set(formulas)) == len(formulas)
