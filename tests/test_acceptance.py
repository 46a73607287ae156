"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Expected values for the named tables come from the golden
files under tests/data; randomized suites use fixed seeds.
"""

import functools
import random
import time

from plogic import (
    Atom,
    Bin,
    Not,
    Operator,
    desugar,
    evaluate,
    is_contradiction,
    is_parallel,
    is_perpendicular,
    is_tautology,
    op_value,
    parse,
    psi_apply,
    relate,
    truth_table,
    upsilon_decrypt,
    upsilon_encrypt,
)
from plogic.formula import Step, replace_at, subformula_at
from plogic.proof import (
    AxiomJust,
    DefJust,
    MPJust,
    Proof,
    ProofLine,
    check_proof,
    match_definiens,
    prove_main_results,
)
from plogic.proof import checker

from oracle import bit_is_tautology, oracle_eval, oracle_assignments, random_formula
from goldens import A_TEXTS, B_TEXTS, N_TEXTS, load_golden


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            print(f"criterion {number} ({name}): PASS")
        return wrapper
    return decorate


# The eight dual-pair connective tables, rows (1,1), (1,0), (0,1), (0,0).
GOLDEN_TABLES = {
    Operator.NOR: (0, 0, 0, 1),
    Operator.NAND: (0, 1, 1, 1),
    Operator.NIMP: (0, 1, 0, 0),
    Operator.XOR: (0, 1, 1, 0),
    Operator.OR: (1, 1, 1, 0),
    Operator.AND: (1, 0, 0, 0),
    Operator.IMP: (1, 0, 1, 1),
    Operator.IFF: (1, 0, 0, 1),
}

INPUT_ROWS = [(1, 1), (1, 0), (0, 1), (0, 0)]


@criterion(1, "operator tables")
def test_01_operator_tables_bit_exact():
    start = time.perf_counter()
    checked = 0
    for op, expected in GOLDEN_TABLES.items():
        for (x, y), bit in zip(INPUT_ROWS, expected):
            assert op_value(op, x, y) == bit
            checked += 1
    assert checked == 32
    assert time.perf_counter() - start < 1.0


def _table_matrix(f):
    tt = truth_table(f)
    return [[col.values[i] for col in tt.columns] for i in range(len(tt.rows))]


@criterion(2, "fundamental regrouping tables")
def test_02_fundamental_tautologies_and_golden_tables():
    for i in range(1, 5):
        f = parse(A_TEXTS[i])
        assert is_tautology(f)
        golden_text, golden = load_golden(f"A{i}")
        assert parse(golden_text) == f
        assert _table_matrix(f) == golden


@criterion(3, "negated-family regrouping tables")
def test_03_negated_contradictions_and_golden_tables():
    for i in range(1, 5):
        f = parse(B_TEXTS[i])
        assert is_contradiction(f)
        golden_text, golden = load_golden(f"B{i}")
        assert parse(golden_text) == f
        assert _table_matrix(f) == golden


@criterion(4, "perpendicularity and its parallel forms")
def test_04_perpendicular_pairs_and_equivalences():
    for i in range(1, 5):
        assert is_perpendicular(parse(A_TEXTS[i]), parse(B_TEXTS[i])).holds
    rng = random.Random(20250102)
    names = ["p", "q", "r", "s"]
    violations = 0
    for _ in range(1000):
        a = random_formula(rng, names, 4)
        b = random_formula(rng, names, 4)
        perp = is_perpendicular(a, b).holds
        if perp != is_parallel(a, Not(b)).holds or perp != is_parallel(Not(a), b).holds:
            violations += 1
        if relate(a, b) != (is_parallel(a, b), is_perpendicular(a, b)):
            violations += 1
    assert violations == 0


@criterion(5, "negated regroupings are tautologies")
def test_05_negations_of_the_contradictions():
    for i in range(1, 5):
        assert is_tautology(Not(parse(B_TEXTS[i])))


@criterion(6, "strip/replace pipeline and decryption")
def test_06_pipeline_and_decrypt_round_trip():
    for i in range(1, 5):
        stripped, _ = upsilon_encrypt(parse(B_TEXTS[i]))
        assert is_parallel(parse(N_TEXTS[i]), psi_apply(stripped)).holds
    rng = random.Random(20250103)
    names = ["p", "q", "r", "s"]
    mismatches = 0
    for _ in range(10_000):
        f = random_formula(rng, names, 5)
        out, trace = upsilon_encrypt(f)
        if upsilon_decrypt(out, trace) != f:
            mismatches += 1
    assert mismatches == 0


@criterion(7, "replacement operator equals iff")
def test_07_updown_tables_match_iff():
    rng = random.Random(20250104)
    names = ["p", "q", "r"]
    for _ in range(500):
        a = random_formula(rng, names, 3)
        b = random_formula(rng, names, 3)
        left = truth_table(Bin(Operator.UPDOWN, a, b))
        right = truth_table(Bin(Operator.IFF, a, b))
        assert [c.values for c in left.columns] == [c.values for c in right.columns]
        assert left.final_index == right.final_index
        assert left.rows == right.rows


@criterion(8, "desugar agrees with an independent evaluator")
def test_08_desugar_oracle_equivalence():
    rng = random.Random(20250105)
    names = ["p", "q", "r", "s"]
    for _ in range(10_000):
        f = random_formula(rng, names, 6)
        g = desugar(f)
        for env in oracle_assignments(names):
            expected = oracle_eval(f, env)
            assert evaluate(f, env) == expected
            assert evaluate(g, env) == expected


@criterion(9, "main results prove and audit")
def test_09_main_results():
    start = time.perf_counter()
    proofs = prove_main_results()
    assert len(proofs) == 4
    for proof in proofs:
        result = check_proof(proof)
        assert result.accepted, (result.line, result.reason)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"generation + verification took {elapsed:.1f}s"
    for proof in proofs:
        assert is_tautology(desugar(proof.goal))
        # soundness audit: every line holds semantically
        for line in proof.lines:
            assert bit_is_tautology(line.formula)
        for line in proof.lines[::100]:
            assert is_tautology(line.formula)


def _swap_operator(formula, rng):
    spots = []

    def walk(node, path):
        if isinstance(node, Not):
            walk(node.child, path + (Step.CHILD,))
        elif isinstance(node, Bin):
            spots.append(path)
            walk(node.left, path + (Step.LEFT,))
            walk(node.right, path + (Step.RIGHT,))

    walk(formula, ())
    if not spots:
        return None
    path = rng.choice(spots)
    node = subformula_at(formula, path)
    replacement = rng.choice([op for op in Operator if op is not node.op])
    return replace_at(formula, path, Bin(replacement, node.left, node.right))


def _bad_def_path(lines, k, rng):
    """A path that provably breaks line k's definition step."""
    just = lines[k - 1].just
    source = lines[k - 2].formula
    current = lines[k - 1].formula
    candidates = [
        just.path + (extra,) for extra in (Step.LEFT, Step.RIGHT, Step.CHILD)
    ] + [(Step.LEFT,), (Step.RIGHT,), (Step.CHILD,), just.path[:-1]]
    for candidate in candidates:
        if candidate == just.path:
            continue
        try:
            node = subformula_at(source, candidate)
        except Exception:
            return candidate  # invalid in the source line
        if just.direction.value == "UNFOLD":
            if not (isinstance(node, Bin) and node.op is just.name):
                return candidate
            from plogic.proof import definiens

            rewritten = definiens(just.name, node.left, node.right)
        else:
            parts = match_definiens(just.name, node)
            if parts is None:
                return candidate
            rewritten = Bin(just.name, parts[0], parts[1])
        if replace_at(source, candidate, rewritten) != current:
            return candidate
    return None


@criterion(10, "checker rejects mutated proofs")
def test_10_adversarial_mutations():
    rng = random.Random(20250106)
    base = prove_main_results()[0]
    assert check_proof(base).accepted
    lines = base.lines

    op_swap_targets = rng.sample(range(1, len(lines) + 1), 200)
    mp_targets = [i for i, ln in enumerate(lines, 1) if isinstance(ln.just, MPJust)]
    def_targets = [
        i
        for i, ln in enumerate(lines, 1)
        if isinstance(ln.just, DefJust) and i > 1
    ]

    mutations = []  # (lines, mutated index, allowed reasons)
    for k in op_swap_targets:
        if len(mutations) >= 40:
            break
        mutated_formula = _swap_operator(lines[k - 1].formula, rng)
        if mutated_formula is None:
            continue
        copy = list(lines)
        copy[k - 1] = ProofLine(k, mutated_formula, copy[k - 1].just)
        mutations.append(
            (
                copy,
                k,
                {
                    checker.NOT_AN_AXIOM_INSTANCE,
                    checker.MP_SHAPE_MISMATCH,
                    checker.DEF_MISMATCH,
                },
            )
        )
    for k in rng.sample(mp_targets, 30):
        copy = list(lines)
        just = copy[k - 1].just
        copy[k - 1] = ProofLine(
            k, copy[k - 1].formula, MPJust(len(lines) + 7, just.minor)
        )
        mutations.append((copy, k, {checker.BAD_MP_REFERENCE}))
    for k in rng.sample(def_targets, 30):
        bad_path = _bad_def_path(lines, k, rng)
        assert bad_path is not None
        copy = list(lines)
        just = copy[k - 1].just
        copy[k - 1] = ProofLine(
            k, copy[k - 1].formula, DefJust(just.name, bad_path, just.direction)
        )
        mutations.append((copy, k, {checker.DEF_MISMATCH}))

    assert len(mutations) == 100
    for mutated_lines, k, allowed in mutations:
        result = check_proof(Proof(goal=base.goal, lines=mutated_lines))
        assert not result.accepted
        assert result.line == k, f"expected rejection at {k}, got {result.line}"
        assert result.reason in allowed
