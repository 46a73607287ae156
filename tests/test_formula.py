import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from plogic import (
    Atom,
    Bin,
    Language,
    Not,
    OpClass,
    Operator,
    atoms_of,
    dual,
    language_of,
    parse,
    path_from_str,
    path_to_str,
    replace_at,
    subformula_at,
    subformulas,
)
from plogic import formula, render
from plogic.cli import main
from plogic.errors import NoDual, PathError
from plogic.formula import Step
from plogic.proof import check_proof, load_proof, proof_to_text, prove_tautology

from oracle import random_formula

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def formulas(max_depth=5, names=("p", "q", "r", "s")):
    """Hypothesis strategy for arbitrary formulas."""
    atoms = st.sampled_from([Atom(n) for n in names])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(st.sampled_from(list(Operator)), sub, sub).map(
                lambda t: Bin(t[0], t[1], t[2])
            ),
        ),
        max_leaves=2**max_depth,
    )


class TestOperators:
    def test_duality_pairs(self):
        assert dual(Operator.OR) is Operator.NOR
        assert dual(Operator.IFF) is Operator.XOR
        assert dual(Operator.NAND) is Operator.AND

    def test_duality_is_an_involution_and_flips_class(self):
        for op in Operator:
            if op is Operator.UPDOWN:
                continue
            assert dual(dual(op)) is op
            assert dual(op).op_class is not op.op_class

    def test_updown_has_no_dual(self):
        with pytest.raises(NoDual):
            dual(Operator.UPDOWN)

    def test_classes(self):
        assert Operator.OR.op_class is OpClass.FO
        assert Operator.UPDOWN.op_class is OpClass.NFO


class TestLanguage:
    def test_single_fundamental(self):
        assert language_of(Bin(Operator.OR, P, Q)) is Language.FO_ONLY

    def test_negated_family_formula(self):
        f = parse("(p ↓ ¬(q ↓ r)) ⊕ (¬(p ↓ q) ↓ r)")
        assert language_of(f) is Language.NFO_ONLY

    def test_atomic(self):
        assert language_of(Not(P)) is Language.ATOMIC
        assert language_of(P) is Language.ATOMIC

    def test_mixed(self):
        assert language_of(parse("(p or (q nand r))")) is Language.MIXED

    @given(formulas())
    def test_invariant_under_negation(self, f):
        assert language_of(Not(f)) is language_of(f)


class TestAtoms:
    def test_first_occurrence_order(self):
        assert atoms_of(parse("(p or (q or r)) iff ((p or q) or r)")) == ["p", "q", "r"]
        assert atoms_of(Bin(Operator.AND, Q, P)) == ["q", "p"]

    def test_deduplication(self):
        assert atoms_of(Bin(Operator.AND, P, P)) == ["p"]

    def test_atom_name_validation(self):
        with pytest.raises(ValueError):
            Atom("2x")
        with pytest.raises(ValueError):
            Atom("")
        with pytest.raises(ValueError):
            Atom("nor")
        Atom("nored")  # a prefix of a keyword is fine


def _postorder(f):
    """The tree's occurrences, children before parents and left to right."""
    if isinstance(f, Not):
        return _postorder(f.child) + [f]
    if isinstance(f, Bin):
        return _postorder(f.left) + _postorder(f.right) + [f]
    return [f]


class TestSubformulas:
    @given(formulas())
    def test_first_occurrences_of_the_postorder(self, f):
        assert subformulas(f) == list(dict.fromkeys(_postorder(f)))

    def test_shared_nodes_are_listed_once(self):
        a = Bin(Operator.AND, P, Q)
        f = Bin(Operator.OR, Not(a), Bin(Operator.IMP, a, P))
        assert subformulas(f) == [P, Q, a, Not(a), Bin(Operator.IMP, a, P), f]

    def test_depth_costs_only_memory(self):
        f = P
        for _ in range(100_000):
            f = Not(f)
        nodes = subformulas(f)
        assert (len(nodes), nodes[0], nodes[-1]) == (100_001, P, f)
        assert atoms_of(f) == ["p"] and language_of(f) is Language.ATOMIC


class TestPaths:
    def test_subformula_at(self):
        f = Not(Bin(Operator.NOR, P, Q))
        assert subformula_at(f, (Step.CHILD, Step.LEFT)) == P

    def test_replace_at_root(self):
        assert replace_at(Bin(Operator.XOR, P, Q), (), R) == R

    def test_replace_under_negation(self):
        assert replace_at(Not(P), (Step.CHILD,), Q) == Not(Q)

    def test_invalid_step(self):
        with pytest.raises(PathError):
            subformula_at(P, (Step.LEFT,))
        with pytest.raises(PathError):
            replace_at(Not(P), (Step.LEFT,), Q)

    def test_path_strings(self):
        path = (Step.LEFT, Step.RIGHT, Step.CHILD)
        assert path_to_str(path) == "LRC"
        assert path_from_str("LRC") == path
        assert path_from_str("") == ()
        with pytest.raises(PathError):
            path_from_str("LX")

    def test_replace_with_own_subformula_is_identity(self, rng):
        for _ in range(200):
            f = random_formula(rng, ["p", "q", "r"], 5)
            path = _random_path(rng, f)
            assert replace_at(f, path, subformula_at(f, path)) == f


def _random_path(rng, f):
    path = []
    node = f
    while True:
        if isinstance(node, Atom) or rng.random() < 0.3:
            return tuple(path)
        if isinstance(node, Not):
            path.append(Step.CHILD)
            node = node.child
        else:
            step = rng.choice([Step.LEFT, Step.RIGHT])
            path.append(step)
            node = node.left if step is Step.LEFT else node.right


class TestHashConsing:
    def test_equal_constructions_are_one_node(self):
        for op in Operator:
            assert Bin(op, P, Not(Q)) is Bin(op, Atom("p"), Not(Atom("q")))
        assert Bin(Operator.OR, P, Q) is not Bin(Operator.OR, Q, P)
        assert Bin(Operator.OR, P, Q) is not Bin(Operator.NOR, P, Q)

    @given(formulas())
    def test_parse_returns_the_interned_node(self, f):
        text = render(f)
        assert parse(text) is parse(text) is f

    def test_loaded_proof_shares_the_generated_nodes(self):
        proof = prove_tautology(parse("(p imp q) or (q imp p)"))
        loaded = load_proof(proof_to_text(proof))
        assert len(loaded.lines) == len(proof.lines)
        for mine, theirs in zip(loaded.lines, proof.lines):
            assert mine.formula is theirs.formula
        assert loaded.goal is proof.goal

    def test_fields_are_read_only(self):
        f = Bin(Operator.AND, P, Not(Q))
        for node, field in ((P, "name"), (f.right, "child"), (f, "op"), (f, "left")):
            with pytest.raises(AttributeError):
                setattr(node, field, R)
            with pytest.raises(AttributeError):
                delattr(node, field)
        with pytest.raises(AttributeError):
            f.extra = 1
        assert f.left is P and f.right.child is Q

    def test_copy_and_pickle_return_the_interned_node(self):
        f = parse("(p nand !q) xiff r")
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_dead_nodes_leave_the_table(self):
        gc.collect()
        before = len(formula._table)
        fs = [random_formula(random.Random(k), ["dead1", "dead2", "dead3"], 6) for k in range(300)]
        assert len(formula._table) > before
        del fs
        gc.collect()
        assert len(formula._table) == before

    def test_a_late_eviction_keeps_the_live_node(self):
        # A dead node's callback may run after a new node has taken its key.
        f = Not(Atom("late1"))
        [live] = weakref.getweakrefs(f)
        stale = formula._Ref(Atom("late2"), None)
        assert stale() is None
        stale.key = live.key
        formula._evict(stale)
        assert Not(Atom("late1")) is f

    def test_deep_axiom_line_is_checked(self, tmp_path):
        a = "!" * 3000 + "p"
        text = f"1. ({a} imp ({a} or q)) ; AX2 [A:={a}, B:=q]\n"
        assert check_proof(load_proof(text)).accepted
        proof_file = tmp_path / "deep.prf"
        proof_file.write_text(text, encoding="utf-8")
        assert main(["verify", str(proof_file)]) == 0

    def test_threads_building_the_same_formulas_get_one_node_each(self):
        threads_n, count, rounds = 8, 2000, 5
        results = [[] for _ in range(threads_n)]
        start = threading.Barrier(threads_n, timeout=60)

        def formulas_of_round(r):
            rng = random.Random(r)
            names = [f"th{r}x{i}" for i in range(5)]
            return [random_formula(rng, names, 5) for _ in range(count)]

        def build(slot):
            start.wait()
            for r in range(rounds):
                formulas_of_round(r)  # these die while other threads build them
                results[slot].append(formulas_of_round(r))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(i,)) for i in range(threads_n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert all(len(r) == rounds for r in results)
        for r in range(rounds):
            mine = formulas_of_round(r)
            for other in results:
                assert all(x is y for x, y in zip(mine, other[r]))


class TestExternalForm:
    def test_repr_is_the_parse_call_of_the_canonical_text(self):
        assert repr(parse("(p nor !q)")) == "parse('(p nor !q)')"
        assert str(Atom("p")) == "parse('p')"

    @given(formulas())
    def test_repr_evaluates_to_the_node(self, f):
        assert eval(repr(f), {"parse": parse}) is f

    @given(formulas())
    def test_pickle_returns_the_node(self, f):
        assert pickle.loads(pickle.dumps(f)) is f

    def test_pickle_keeps_shared_subformulas_shared(self):
        # 40 doublings: 2**40 leaves as a tree, 41 distinct nodes
        f = Atom("p")
        for _ in range(40):
            f = Bin(Operator.AND, f, f)
        data = pickle.dumps(f)
        assert len(data) < 2000
        assert pickle.loads(data) is f
