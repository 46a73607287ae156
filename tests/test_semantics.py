import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plogic import (
    Atom,
    Bin,
    Dialect,
    Not,
    Operator,
    atoms_of,
    dual,
    evaluate,
    is_contradiction,
    is_parallel,
    is_perpendicular,
    is_tautology,
    op_value,
    parse,
    render,
    table_blocks,
    table_labels,
    truth_table,
)
from plogic.cli import main as cli_main
from plogic.errors import MissingAtom, TooManyAtoms
from plogic.formula import subformula_at
from plogic.semantics import TRUTH, assignments, first_row, first_rows

from oracle import TABLES, bit_columns, bit_eval, oracle_assignments, oracle_eval, random_formula
from goldens import A_TEXTS, B_TEXTS, load_golden
from test_formula import formulas

P, Q = Atom("p"), Atom("q")


class TestOperatorTables:
    def test_all_nine_tables_against_independent_transcription(self):
        for op in Operator:
            for x, y in [(1, 1), (1, 0), (0, 1), (0, 0)]:
                assert op_value(op, x, y) == TABLES[op.value][(x, y)]

    def test_duality_at_table_level(self):
        for op in Operator:
            if op is Operator.UPDOWN:
                continue
            for x, y in [(1, 1), (1, 0), (0, 1), (0, 0)]:
                assert op_value(dual(op), x, y) == 1 - op_value(op, x, y)

    def test_replacement_operator_matches_iff(self):
        assert TRUTH[Operator.UPDOWN] == TRUTH[Operator.IFF]


class TestEvaluate:
    def test_spot_values(self):
        assert evaluate(parse("p nor q"), {"p": 0, "q": 0}) == 1
        assert evaluate(parse("p nand q"), {"p": 1, "q": 1}) == 0
        assert evaluate(Not(P), {"p": 1}) == 0

    def test_missing_atom(self):
        with pytest.raises(MissingAtom) as exc:
            evaluate(Bin(Operator.OR, P, Q), {"p": 1})
        assert exc.value.name == "q"

    def test_agrees_with_oracle_on_random_formulas(self, rng):
        names = ["p", "q", "r", "s"]
        for _ in range(500):
            f = random_formula(rng, names, 5)
            env = {n: rng.randint(0, 1) for n in names}
            assert evaluate(f, env) == oracle_eval(f, env)


class TestTruthTable:
    def test_single_atom_rows_descend(self):
        tt = truth_table(P)
        assert tt.rows == [{"p": 1}, {"p": 0}]
        assert tt.columns[tt.final_index].values == [1, 0]

    def test_row_order_invariant(self, rng):
        f = random_formula(rng, ["p", "q", "r"], 4)
        tt = truth_table(f)
        n = len(tt.atom_order)
        assert all(v == 1 for v in tt.rows[0].values())
        assert all(v == 0 for v in tt.rows[-1].values())
        assert len(tt.rows) == 2**n

    def test_final_column_is_root(self):
        tt = truth_table(parse(A_TEXTS[1]))
        assert tt.columns[tt.final_index].path == ()
        assert tt.columns[tt.final_index].values == [1] * 8

    def test_negated_family_final_column_all_zero(self):
        tt = truth_table(parse(B_TEXTS[1]))
        assert tt.columns[tt.final_index].values == [0] * 8

    def test_golden_layout_one_table(self):
        text, expected = load_golden("A1")
        tt = truth_table(parse(text))
        got = [[col.values[i] for col in tt.columns] for i in range(8)]
        assert got == expected

    def test_every_column_is_a_subformula_column(self, rng):
        from plogic import subformula_at

        f = random_formula(rng, ["p", "q"], 4)
        tt = truth_table(f)
        for i, row in enumerate(tt.rows):
            for col in tt.columns:
                assert col.values[i] == evaluate(subformula_at(f, col.path), row)

    def test_one_column_per_atom_and_connective_occurrence(self, rng):
        from plogic import table_labels
        from plogic.formula import Atom, Bin, Not

        def symbol_count(node):
            if isinstance(node, Atom):
                return 1
            if isinstance(node, Not):
                return symbol_count(node.child)
            return symbol_count(node.left) + 1 + symbol_count(node.right)

        for _ in range(100):
            f = random_formula(rng, ["p", "q", "r"], 4)
            tt = truth_table(f)
            assert len(tt.columns) == symbol_count(f)
            assert len(table_labels(f)) == len(tt.columns)

    @given(formulas(max_depth=4), st.sampled_from(list(Dialect)))
    @settings(max_examples=150)
    def test_header_is_the_canonical_text_cut_at_its_spaces(self, f, dialect):
        text = render(f, dialect)
        labels = table_labels(f, dialect)
        assert " ".join(labels) == (text[1:-1] if isinstance(f, Bin) else text)
        assert all(labels)
        columns = truth_table(f).columns
        assert len(labels) == len(columns)
        for label, col in zip(labels, columns):  # each cell names its column's symbol
            node = subformula_at(f, col.path)
            while isinstance(node, Not):
                node = node.child
            if isinstance(node, Atom):
                symbol = node.name
            else:
                symbol = render(Bin(node.op, P, P), dialect).split(" ")[1]
            assert label.strip("!¬()") == symbol

    def test_atom_guard(self):
        f = Atom("a0")
        for i in range(1, 25):
            f = Bin(Operator.OR, f, Atom(f"a{i}"))
        with pytest.raises(TooManyAtoms):
            truth_table(f)
        with pytest.raises(TooManyAtoms):
            is_tautology(f)
        with pytest.raises(TooManyAtoms):  # at the call, before any block
            table_blocks(f)

    def test_atom_guard_applies_to_the_union_in_relations(self):
        left = Atom("a0")
        for i in range(1, 13):
            left = Bin(Operator.OR, left, Atom(f"a{i}"))
        right = Atom("b0")
        for i in range(1, 13):
            right = Bin(Operator.OR, right, Atom(f"b{i}"))
        with pytest.raises(TooManyAtoms):
            is_parallel(left, right)


class TestClassification:
    def test_regrouping_tautologies(self):
        assert is_tautology(parse(A_TEXTS[3]))
        assert is_tautology(parse(A_TEXTS[4]))

    def test_negated_family_contradictions(self):
        assert is_contradiction(parse(B_TEXTS[4]))

    def test_xor_self(self):
        assert is_contradiction(parse("p xor p"))

    @given(formulas(max_depth=4))
    @settings(max_examples=150)
    def test_tautology_iff_negation_contradiction(self, f):
        assert is_tautology(f) == is_contradiction(Not(f))


class TestRelations:
    def test_parallel_with_negated_counterpart(self, regrouping_formulas):
        a, b = regrouping_formulas
        verdict = is_parallel(a[1], Not(b[1]))
        assert verdict.holds and verdict.witness is None

    def test_parallel_failure_witness_is_first_row(self):
        verdict = is_parallel(parse("p or q"), parse("p nor q"))
        assert not verdict.holds
        assert verdict.witness == {"p": 1, "q": 1}

    def test_parallel_reflexive(self):
        assert is_parallel(P, P).holds

    def test_perpendicular_fundamental_negated_pairs(self, regrouping_formulas):
        a, b = regrouping_formulas
        for i in range(1, 5):
            assert is_perpendicular(a[i], b[i]).holds

    def test_self_perpendicular_impossible(self):
        verdict = is_perpendicular(P, P)
        assert not verdict.holds
        assert verdict.witness == {"p": 1}

    def test_dual_operators_give_perpendicular_formulas(self):
        assert is_perpendicular(parse("p or q"), parse("p nor q")).holds

    def test_disjoint_atom_sets_use_the_union(self):
        verdict = is_parallel(P, Q)
        assert not verdict.holds
        assert verdict.witness == {"p": 1, "q": 0}

    def test_perpendicular_parallel_equivalences(self, rng):
        names = ["p", "q", "r", "s"]
        for _ in range(300):
            a = random_formula(rng, names, 4)
            b = random_formula(rng, names, 4)
            perp = is_perpendicular(a, b).holds
            assert perp == is_parallel(a, Not(b)).holds
            assert perp == is_parallel(Not(a), b).holds


# --- tables larger than one scan block (4,096 rows) -------------------------


def _names(n):
    return [f"a{i}" for i in range(n)]


def _oracle_row(names, index):
    return next(itertools.islice(oracle_assignments(names), index, None))


def _oracle_first(names, holds):
    """First row in table order, by the oracle, where ``holds(env)``."""
    return next((env for env in oracle_assignments(names) if holds(env)), None)


def _only_row(names, row):
    """A conjunction of literals that is true on ``row`` alone."""
    lits = [Atom(n) if row[n] else Not(Atom(n)) for n in names]
    f = lits[0]
    for lit in lits[1:]:
        f = Bin(Operator.AND, f, lit)
    return f


def _chain(names, op):
    f = Atom(names[0])
    for name in names[1:]:
        f = Bin(op, f, Atom(name))
    return f


class TestMultiBlock:
    # (atoms, index of the only true row): a later block, a block's first
    # and last rows, and the all-zeros row that ends the table
    CASES = [(13, 4096), (13, 2**13 - 1), (14, 9000), (15, 12287), (16, 40000)]

    @pytest.mark.parametrize("n, index", CASES)
    def test_first_row_in_a_later_block(self, n, index):
        names = _names(n)
        row = _oracle_row(names, index)
        f = _only_row(names, row)
        false_row = _oracle_first(names, lambda e: oracle_eval(f, e) == 0)
        assert first_row(f, 1) == row == _oracle_first(names, lambda e: oracle_eval(f, e) == 1)
        assert first_row(Not(f), 0) == row
        assert first_row(f, 0) == false_row
        assert list(first_rows(f)) == [(0, false_row), (1, row)]  # in table order
        # a tautology and a contradiction on the same atoms take one value only
        cols, mask = bit_columns(names), (1 << 2**n) - 1
        for g in (Bin(Operator.OR, f, Not(f)), Bin(Operator.AND, f, Not(f))):
            ones = bit_eval(g, cols, mask)
            assert ones in (0, mask)
            assert dict(first_rows(g)) == {ones & 1: _oracle_row(names, 0)}
        assert not is_contradiction(f) and not is_tautology(f)

    @pytest.mark.parametrize("n", [13, 16])
    def test_witness_on_the_all_zeros_row(self, n):
        names = _names(n)
        f = _chain(names, Operator.OR)
        last = _oracle_first(names, lambda e: oracle_eval(f, e) == 0)
        assert last == dict.fromkeys(names, 0)
        assert first_row(f, 0) == last
        assert not is_tautology(f)
        assert is_tautology(Bin(Operator.OR, f, Not(Atom(names[-1]))))

    @pytest.mark.parametrize("n, index", CASES)
    def test_check_reports_the_oracle_witnesses(self, n, index, capsys):
        names = _names(n)
        f = _only_row(names, _oracle_row(names, index))
        assert cli_main(["check", "--json", render(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "CONTINGENT"
        assert out["true_at"] == _oracle_first(names, lambda e: oracle_eval(f, e) == 1)
        assert out["false_at"] == _oracle_first(names, lambda e: oracle_eval(f, e) == 0)

    @pytest.mark.parametrize("n, index", CASES)
    def test_relations_find_the_oracle_witness(self, n, index):
        names = _names(n)
        a = _only_row(names, _oracle_row(names, index))
        never = Bin(Operator.AND, Atom(names[0]), Not(Atom(names[0])))
        always = Bin(Operator.NAND, Atom(names[0]), Not(Atom(names[0])))
        verdict = is_parallel(a, never)
        assert not verdict.holds
        assert verdict.witness == _oracle_first(
            names, lambda e: oracle_eval(a, e) != oracle_eval(never, e)
        )
        verdict = is_perpendicular(a, always)
        assert not verdict.holds
        assert verdict.witness == _oracle_first(
            names, lambda e: oracle_eval(always, e) != 1 - oracle_eval(a, e)
        )

    @pytest.mark.parametrize("n", [13, 16])
    def test_relations_fail_on_the_all_zeros_row(self, n):
        names = _names(n)
        left = _chain(names, Operator.OR)
        right = _chain(list(reversed(names)), Operator.OR)
        assert is_parallel(left, right).holds
        assert is_perpendicular(left, Not(right)).holds
        verdict = is_parallel(left, Bin(Operator.OR, Atom(names[0]), Not(Atom(names[0]))))
        assert verdict.witness == dict.fromkeys(names, 0)
        verdict = is_perpendicular(left, Bin(Operator.AND, left, Not(left)))
        assert verdict.witness == dict.fromkeys(names, 0)

    def test_thirteen_atom_table_matches_the_oracle(self, rng):
        names = _names(13)
        ops = list(Operator)
        f = Atom(names[0])
        for i, name in enumerate(names[1:]):
            f = Bin(ops[i % len(ops)], Not(f) if i % 4 == 3 else f, Atom(name))
        tt = truth_table(f)
        envs = list(oracle_assignments(names))
        assert tt.atom_order == names
        assert tt.rows == envs
        final = tt.columns[tt.final_index]
        assert final.values == [oracle_eval(f, env) for env in envs]
        # every column on the rows around the block boundary, and a sample
        sample = [0, 4095, 4096, 4097, 8191] + rng.sample(range(8192), 100)
        for col in tt.columns:
            assert len(col.values) == 8192
            sub = subformula_at(f, col.path)
            for i in sample:
                assert col.values[i] == oracle_eval(sub, envs[i])


class TestEarlyExit:
    """A question decided at row 0 costs one kernel pass, even at 24 atoms."""

    F = _chain([f"a{i}" for i in range(24)], Operator.OR)  # true at row 0

    @pytest.mark.parametrize(
        "question",
        [
            lambda f: first_row(f, 1) == dict.fromkeys(atoms_of(f), 1),
            lambda f: not is_tautology(Not(f)),
            lambda f: not is_contradiction(f),
            lambda f: not is_parallel(f, Not(f)).holds,
            lambda f: not is_perpendicular(f, f).holds,
        ],
        ids=["first_row", "is_tautology", "is_contradiction", "is_parallel", "is_perpendicular"],
    )
    def test_one_pass(self, kernel_passes, question):
        assert question(self.F)
        assert len(kernel_passes) == 1

    def test_too_many_atoms_raise_before_any_pass(self, kernel_passes):
        with pytest.raises(TooManyAtoms):
            first_rows(Bin(Operator.OR, self.F, Atom("a24")))
        assert kernel_passes == []
