import pytest

from plogic import Atom, Bin, Not, Operator, Step, evaluate, parse
from plogic.errors import MissingMetavariable
from plogic.proof import (
    DEFINED_OPS,
    AxiomJust,
    DefJust,
    Direction,
    MPJust,
    Proof,
    ProofLine,
    axiom_instance,
    axiom_just,
    check_proof,
    definiens,
    match_definiens,
    rewrite,
)
from plogic.proof import checker

from oracle import oracle_assignments, oracle_atoms, oracle_is_tautology, random_formula

P, Q = Atom("p"), Atom("q")


class TestAxiomInstances:
    def test_schema_two(self):
        assert axiom_instance(2, {"A": P, "B": Q}) == parse("p imp (p or q)")

    def test_schema_one_over_compound(self):
        nor = parse("p nor q")
        assert axiom_instance(1, {"A": nor}) == parse(
            "((p nor q) or (p nor q)) imp (p nor q)"
        )

    def test_missing_metavariable(self):
        with pytest.raises(MissingMetavariable):
            axiom_instance(4, {"A": P, "B": Q})
        with pytest.raises(ValueError):
            axiom_instance(5, {"A": P})

    def test_every_instance_is_a_tautology(self, rng):
        names = ["p", "q", "r"]
        for _ in range(100):
            subst = {v: random_formula(rng, names, 3) for v in "ABC"}
            for schema in (1, 2, 3, 4):
                assert oracle_is_tautology(axiom_instance(schema, subst))


class TestDefinitions:
    def test_definiens_preserves_semantics(self, rng):
        names = ["p", "q"]
        for _ in range(100):
            a = random_formula(rng, names, 2)
            b = random_formula(rng, names, 2)
            for op in DEFINED_OPS:
                sugar = Bin(op, a, b)
                plain = definiens(op, a, b)
                for env in oracle_assignments(names):
                    assert evaluate(sugar, env) == evaluate(plain, env)

    def test_match_inverts_definiens(self, rng):
        names = ["p", "q"]
        for _ in range(100):
            a = random_formula(rng, names, 2)
            b = random_formula(rng, names, 2)
            for op in DEFINED_OPS:
                assert match_definiens(op, definiens(op, a, b)) == (a, b)

    def test_match_rejects_other_shapes(self):
        assert match_definiens(Operator.IMP, parse("p or q")) is None
        assert match_definiens(Operator.AND, parse("!(p or q)")) is None
        assert match_definiens(Operator.IFF, parse("(p imp q) and (p imp q)")) is None

    def test_single_rewrite_at_any_path_preserves_the_truth_table(self, rng):
        # one definitional step, anywhere in the tree, never changes semantics
        from plogic.formula import Step, replace_at, subformula_at

        names = ["p", "q", "r"]
        done = 0
        while done < 150:
            f = random_formula(rng, names, 4)
            spots = []

            def walk(node, path):
                if isinstance(node, Not):
                    walk(node.child, path + (Step.CHILD,))
                elif isinstance(node, Bin):
                    if node.op in DEFINED_OPS:
                        spots.append(path)
                    walk(node.left, path + (Step.LEFT,))
                    walk(node.right, path + (Step.RIGHT,))

            walk(f, ())
            if not spots:
                continue
            path = rng.choice(spots)
            node = subformula_at(f, path)
            unfolded = replace_at(f, path, definiens(node.op, node.left, node.right))
            for env in oracle_assignments(names):
                assert evaluate(f, env) == evaluate(unfolded, env)
            # folding back restores the original tree exactly
            refolded = replace_at(
                unfolded,
                path,
                Bin(node.op, *match_definiens(node.op, subformula_at(unfolded, path))),
            )
            assert refolded == f
            assert rewrite(f, node.op, path, Direction.UNFOLD) == unfolded
            assert rewrite(unfolded, node.op, path, Direction.FOLD) == f
            done += 1


def _line(i, text, just):
    return ProofLine(i, parse(text), just)


def _ax(schema, **kw):
    return axiom_just(schema, {k: parse(v) for k, v in kw.items()})


class TestChecker:
    def test_accepts_axiom_lines(self):
        proof = Proof(
            goal=parse("(p or p) imp p"),
            lines=[
                _line(1, "p imp (p or p)", _ax(2, A="p", B="p")),
                _line(2, "(p or p) imp p", _ax(1, A="p")),
            ],
        )
        assert check_proof(proof).accepted

    def test_accepts_mp_with_imp_spelled_major(self):
        proof = Proof(
            goal=parse("((p or p) imp p) or q"),
            lines=[
                _line(1, "(p or p) imp p", _ax(1, A="p")),
                _line(
                    2,
                    "((p or p) imp p) imp (((p or p) imp p) or q)",
                    _ax(2, A="(p or p) imp p", B="q"),
                ),
                _line(3, "((p or p) imp p) or q", MPJust(2, 1)),
            ],
        )
        assert check_proof(proof).accepted

    def test_accepts_mp_with_primitive_spelled_major(self):
        proof = Proof(
            goal=parse("((p or p) imp p) or q"),
            lines=[
                _line(1, "(p or p) imp p", _ax(1, A="p")),
                _line(
                    2,
                    "((p or p) imp p) imp (((p or p) imp p) or q)",
                    _ax(2, A="(p or p) imp p", B="q"),
                ),
                _line(
                    3,
                    "!((p or p) imp p) or (((p or p) imp p) or q)",
                    DefJust(Operator.IMP, (), Direction.UNFOLD),
                ),
                _line(4, "((p or p) imp p) or q", MPJust(3, 1)),
            ],
        )
        assert check_proof(proof).accepted

    def test_def_lines_rewrite_the_preceding_line(self):
        proof = Proof(
            goal=parse("!(p or p) or p"),
            lines=[
                _line(1, "(p or p) imp p", _ax(1, A="p")),
                _line(2, "!(p or p) or p", DefJust(Operator.IMP, (), Direction.UNFOLD)),
            ],
        )
        assert check_proof(proof).accepted

    def test_def_step_under_1200_negations(self):
        a = "!" * 1200 + "(p imp q)"
        unfolded = "!" * 1200 + "(!p or q)"
        path = (Step.LEFT,) + (Step.CHILD,) * 1200
        lines = [
            _line(1, f"{a} imp ({a} or q)", _ax(2, A=a, B="q")),
            _line(2, f"{unfolded} imp ({a} or q)", DefJust(Operator.IMP, path, Direction.UNFOLD)),
        ]
        result = check_proof(Proof(goal=lines[1].formula, lines=lines))
        assert isinstance(result, checker.CheckResult) and result.accepted
        lines[1] = ProofLine(2, lines[0].formula, lines[1].just)
        result = check_proof(Proof(goal=lines[1].formula, lines=lines))
        assert (result.line, result.reason) == (2, checker.DEF_MISMATCH)

    def test_rejects_wrong_axiom_instance(self):
        proof = Proof(
            goal=parse("p imp (p or q)"),
            lines=[_line(1, "p imp (p or q)", _ax(2, A="p", B="p"))],
        )
        result = check_proof(proof)
        assert not result.accepted
        assert (result.line, result.reason) == (1, checker.NOT_AN_AXIOM_INSTANCE)

    def test_rejects_unused_metavariables(self):
        proof = Proof(
            goal=parse("(p or p) imp p"),
            lines=[_line(1, "(p or p) imp p", _ax(1, A="p", Z="q"))],
        )
        result = check_proof(proof)
        assert (result.line, result.reason) == (1, checker.NOT_AN_AXIOM_INSTANCE)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_rejects_def_steps_on_primitive_connectives(self, direction):
        proof = Proof(
            goal=parse("!p or (p or p)"),
            lines=[
                _line(1, "p imp (p or p)", _ax(2, A="p", B="p")),
                _line(2, "!p or (p or p)", DefJust(Operator.OR, (Step.RIGHT,), direction)),
            ],
        )
        result = check_proof(proof)
        assert (result.line, result.reason) == (2, checker.DEF_MISMATCH)

    def test_rejects_mp_with_non_implication_major(self):
        proof = Proof(
            goal=parse("q or p"),
            lines=[
                _line(1, "(p or q) imp (q or p)", _ax(3, A="p", B="q")),
                _line(2, "(q or p) imp (p or q)", _ax(3, A="q", B="p")),
                _line(3, "q or p", MPJust(1, 2)),
            ],
        )
        result = check_proof(proof)
        assert (result.line, result.reason) == (3, checker.MP_SHAPE_MISMATCH)

    def test_rejects_mp_whose_major_is_a_bare_disjunction(self):
        # q or !q is a theorem but cannot serve as an implication
        from plogic.proof import prove_tautology

        base = prove_tautology(parse("q or !q"))
        k = len(base.lines)
        lines = base.lines + [
            ProofLine(k + 1, parse("!q"), MPJust(k, k))
        ]
        result = check_proof(Proof(goal=parse("!q"), lines=lines))
        assert (result.line, result.reason) == (k + 1, checker.MP_SHAPE_MISMATCH)

    def test_rejects_dangling_and_forward_references(self):
        base = [
            _line(1, "(p or p) imp p", _ax(1, A="p")),
            _line(2, "p", MPJust(1, 9)),
        ]
        result = check_proof(Proof(goal=P, lines=base))
        assert (result.line, result.reason) == (2, checker.BAD_MP_REFERENCE)
        base[1] = _line(2, "p", MPJust(1, 2))  # self-reference
        result = check_proof(Proof(goal=P, lines=base))
        assert (result.line, result.reason) == (2, checker.BAD_MP_REFERENCE)

    def test_rejects_def_on_first_line_and_bad_paths(self):
        proof = Proof(
            goal=parse("!(p or p) or p"),
            lines=[_line(1, "!(p or p) or p", DefJust(Operator.IMP, (), Direction.UNFOLD))],
        )
        result = check_proof(proof)
        assert (result.line, result.reason) == (1, checker.DEF_MISMATCH)

        from plogic.formula import Step

        proof = Proof(
            goal=parse("!(p or p) or p"),
            lines=[
                _line(1, "(p or p) imp p", _ax(1, A="p")),
                _line(
                    2,
                    "!(p or p) or p",
                    DefJust(Operator.IMP, (Step.LEFT, Step.LEFT), Direction.UNFOLD),
                ),
            ],
        )
        result = check_proof(proof)
        assert (result.line, result.reason) == (2, checker.DEF_MISMATCH)

    def test_rejects_goal_mismatch(self):
        proof = Proof(
            goal=parse("p imp (p or q)"),
            lines=[_line(1, "(p or p) imp p", _ax(1, A="p"))],
        )
        result = check_proof(proof)
        assert result.reason == checker.GOAL_MISMATCH

    def test_rejects_sparse_indices(self):
        proof = Proof(
            goal=parse("(p or p) imp p"),
            lines=[ProofLine(3, parse("(p or p) imp p"), _ax(1, A="p"))],
        )
        result = check_proof(proof)
        assert result.reason == checker.BAD_LINE_INDEX

    def test_rejects_premise_lines(self):
        proof = Proof(goal=P, lines=[ProofLine(1, P, object())])
        result = check_proof(proof)
        assert result.reason == checker.UNSUPPORTED_JUSTIFICATION

    def test_rejects_empty_proof(self):
        assert not check_proof(Proof(goal=P, lines=[])).accepted


_AX1_P = _line(1, "(p or p) imp p", _ax(1, A="p"))
_UNFOLD_IMP = DefJust(Operator.IMP, (), Direction.UNFOLD)

# (lines, reason, detail) for every detail an AX, DEF or MP line can be
# rejected with; ``verify`` prints the detail.  The last line is the one
# rejected.
REJECTION_DETAILS = [
    (
        [_line(1, "(p or p) imp p", _ax(5, A="p"))],
        checker.NOT_AN_AXIOM_INSTANCE,
        "no axiom schema 5",
    ),
    (
        [_line(1, "p imp (p or q)", _ax(2, A="p"))],
        checker.NOT_AN_AXIOM_INSTANCE,
        "axiom schema 2 needs metavariable B",
    ),
    (
        [_line(1, "(p or p) imp p", _ax(1, A="p", B="q"))],
        checker.NOT_AN_AXIOM_INSTANCE,
        "AX1 has only the metavariables A",
    ),
    (
        [_AX1_P, _line(2, "(q or p) imp (p or q)", _ax(3, A="p", B="q"))],
        checker.NOT_AN_AXIOM_INSTANCE,
        "formula is not the stated AX3 instance",
    ),
    (
        [_line(1, "!(p or p) or p", _UNFOLD_IMP)],
        checker.DEF_MISMATCH,
        "no preceding line to rewrite",
    ),
    (
        [_AX1_P, _line(2, "(p or p) imp p", DefJust(Operator.OR, (Step.RIGHT,), Direction.FOLD))],
        checker.DEF_MISMATCH,
        "or is primitive, not defined",
    ),
    (
        # the primitive name is reported before the path is walked
        [_AX1_P, _line(2, "(p or p) imp p", DefJust(Operator.OR, (Step.CHILD,), Direction.UNFOLD))],
        checker.DEF_MISMATCH,
        "or is primitive, not defined",
    ),
    (
        [_AX1_P, _line(2, "!(p or p) or p", DefJust(Operator.IMP, (Step.LEFT, Step.LEFT, Step.LEFT), Direction.UNFOLD))],
        checker.DEF_MISMATCH,
        "path LLL not valid in line 1",
    ),
    (
        [_AX1_P, _line(2, "!(p or p) or p", DefJust(Operator.IMP, (Step.LEFT,), Direction.UNFOLD))],
        checker.DEF_MISMATCH,
        "subformula at path is not a imp application",
    ),
    (
        [_AX1_P, _line(2, "!(p or p) or p", DefJust(Operator.AND, (), Direction.UNFOLD))],
        checker.DEF_MISMATCH,
        "subformula at path is not a and application",
    ),
    (
        [_AX1_P, _line(2, "(p imp p) imp p", DefJust(Operator.IMP, (Step.LEFT,), Direction.FOLD))],
        checker.DEF_MISMATCH,
        "subformula at path does not match the imp definition",
    ),
    (
        [_AX1_P, _line(2, "!(p or q) or p", _UNFOLD_IMP)],
        checker.DEF_MISMATCH,
        "formula is not the stated rewrite of the preceding line",
    ),
    (
        [
            _line(1, "(p or q) imp (q or p)", _ax(3, A="p", B="q")),
            _line(2, "q or p", MPJust(2, 1)),
        ],
        checker.BAD_MP_REFERENCE,
        "references 2,1 must be earlier lines",
    ),
    (
        [
            _AX1_P,
            _line(2, "!(p or p) or p", _UNFOLD_IMP),
            _line(3, "(p nor p) or p", DefJust(Operator.NOR, (Step.LEFT,), Direction.FOLD)),
            _line(4, "p", MPJust(3, 1)),
        ],
        checker.MP_SHAPE_MISMATCH,
        "line 3 is not an implication",
    ),
    (
        [
            _line(1, "(p or q) imp (q or p)", _ax(3, A="p", B="q")),
            _line(2, "(q or p) imp (p or q)", _ax(3, A="q", B="p")),
            _line(3, "q or p", MPJust(1, 2)),
        ],
        checker.MP_SHAPE_MISMATCH,
        "line 2 does not match the antecedent of line 1",
    ),
    (
        [
            _AX1_P,
            _line(2, "((p or p) imp p) imp (((p or p) imp p) or q)", _ax(2, A="(p or p) imp p", B="q")),
            _line(3, "((p or p) imp p) or p", MPJust(2, 1)),
        ],
        checker.MP_SHAPE_MISMATCH,
        "formula does not match the consequent of the major premise",
    ),
]


@pytest.mark.parametrize(
    "lines,reason,detail", REJECTION_DETAILS, ids=[d for _, _, d in REJECTION_DETAILS]
)
def test_rejection_details(lines, reason, detail):
    result = check_proof(Proof(goal=lines[-1].formula, lines=lines))
    assert (result.accepted, result.line, result.reason, result.detail) == (
        False, len(lines), reason, detail,
    )


def test_a_judge_reuses_only_the_derivation_made_for_the_line_it_takes():
    judge = checker.Judge()
    assert judge.derive(_UNFOLD_IMP).detail == "no preceding line to rewrite"
    judge.take(_AX1_P)  # not the justification derived: replayed afresh
    judge.take(_line(2, "!(p or p) or p", _UNFOLD_IMP))  # derived for line 1, not line 2
    assert judge.result(parse("!(p or p) or p")).accepted
