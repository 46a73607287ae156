"""Formulas nested far past the interpreter's recursion limit, through the
command line and through the prover and checker.

The expected answers come from how each formula is built (the parity of a
negation run, or a truth column carried along the construction), not from
``tests/oracle.py``, which recurses.
"""

import copy
import functools
import itertools
import json
import pickle
import resource
import subprocess
import sys

import pytest

from plogic import Atom, Bin, Dialect, Not, Operator, parse, render, table_labels, truth_table
from plogic.proof import check_proof, load_proof, proof_to_json, proof_to_text, prove_tautology
from test_cli import run_cli
from test_proofio import _reference_dict, _reference_text

DEEP = "!" * 3000 + "p"  # an even run: the same truth table as p


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return f"@{path}"


def _mixed(levels=600):
    """A nor/nand spine with xor side operands, about 1,400 levels deep, its
    column over (p, q, r) and the number of negations upsilon removes.

    Level kinds cycle: ``!g nor (q xor r)`` and ``(r xor p) nor !g`` each
    carry a removable negation (g is nor- or nand-rooted); ``!!g nand q``
    carries none.
    """
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    rows = list(itertools.product((1, 0), repeat=3))
    g = Bin(Operator.NOR, p, q)
    col = {row: 1 - (row[0] | row[1]) for row in rows}
    removable = 0
    for i in range(levels):
        kind = i % 3
        if kind == 0:
            g = Bin(Operator.NOR, Not(g), Bin(Operator.XOR, q, r))
            col = {(a, b, c): 1 - ((1 - col[a, b, c]) | (b ^ c)) for a, b, c in rows}
        elif kind == 1:
            g = Bin(Operator.NOR, Bin(Operator.XOR, r, p), Not(g))
            col = {(a, b, c): 1 - ((c ^ a) | (1 - col[a, b, c])) for a, b, c in rows}
        else:
            g = Bin(Operator.NAND, Not(Not(g)), q)
            col = {(a, b, c): 1 - (col[a, b, c] & b) for a, b, c in rows}
        removable += kind < 2
    return g, col, removable


def _value(col, row):
    return col[row["p"], row["q"], row["r"]]


def test_check_deep_negations(tmp_path):
    result = run_cli("check", "--json", _write(tmp_path, "f.txt", DEEP))
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert (out["verdict"], out["true_at"], out["false_at"]) == ("CONTINGENT", {"p": 1}, {"p": 0})


def test_table_deep_negations(tmp_path):
    source = _write(tmp_path, "f.txt", DEEP)
    text = run_cli("table", source)
    assert text.returncode == 0
    assert text.stdout.splitlines()[0] == f"p | [{DEEP}]"
    assert [line.split("|")[1].strip() for line in text.stdout.splitlines()[2:4]] == ["1", "0"]
    result = run_cli("table", "--json", source)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert [c["path"] for c in out["columns"]] == [""]
    assert out["final"] == [1, 0]


@pytest.mark.parametrize("kind", ["negations", "mixed"])
def test_deep_header_is_the_canonical_text_cut_at_its_spaces(kind):
    f = parse(DEEP) if kind == "negations" else _mixed()[0]
    columns = truth_table(f).columns
    for dialect in Dialect:
        text = render(f, dialect)
        labels = table_labels(f, dialect)
        assert " ".join(labels) == (text[1:-1] if isinstance(f, Bin) else text)
        assert all(labels)
        assert len(labels) == len(columns)


def test_relate_deep_negations(tmp_path):
    odd = _write(tmp_path, "g.txt", "!" * 2999 + "p")  # the complement of p
    result = run_cli("relate", "--json", _write(tmp_path, "f.txt", DEEP), odd)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out == {"parallel": False, "perpendicular": True, "parallel_witness": {"p": 1}}


@pytest.mark.parametrize("rule", ["desugar", "upsilon"])
def test_transform_deep_negations(tmp_path, rule):
    trace = tmp_path / "t.json"
    flags = ["-t", str(trace)] if rule == "upsilon" else []
    result = run_cli("transform", rule, _write(tmp_path, "f.txt", DEEP), *flags)
    assert (result.returncode, result.stdout) == (0, DEEP + "\n")
    if rule == "upsilon":
        assert json.loads(trace.read_text()) == {"removed_negations": []}


def test_check_and_table_deep_mixed_formula(tmp_path):
    f, col, _ = _mixed()
    source = _write(tmp_path, "f.txt", render(f))
    check = json.loads(run_cli("check", "--json", source).stdout)
    values = set(col.values())
    assert check["verdict"] == {
        frozenset({1}): "TAUTOLOGY", frozenset({0}): "CONTRADICTION"
    }.get(frozenset(values), "CONTINGENT")
    if check["verdict"] == "CONTINGENT":
        assert _value(col, check["true_at"]) == 1
        assert _value(col, check["false_at"]) == 0
    table = json.loads(run_cli("table", "--json", source).stdout)
    assert table["final"] == [_value(col, row) for row in table["rows"]]
    assert len(table["columns"]) == 3 + 200 * (4 + 4 + 2)  # a column per atom and connective


def test_relate_deep_mixed_formula(tmp_path):
    f, _, _ = _mixed()
    a = _write(tmp_path, "a.txt", render(f))
    b = _write(tmp_path, "b.txt", render(Not(f)))
    result = run_cli("relate", "--json", a, b)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert (out["parallel"], out["perpendicular"]) == (False, True)
    assert set(out["parallel_witness"].values()) == {1}  # the first row


def test_desugar_deep_mixed_formula(tmp_path):
    f, col, _ = _mixed()
    result = run_cli("transform", "desugar", _write(tmp_path, "f.txt", render(f)))
    assert result.returncode == 0
    assert not {"nor", "nand", "xor", "nimp", "xiff"} & set(result.stdout.split())
    table = json.loads(run_cli("table", "--json", _write(tmp_path, "g.txt", result.stdout)).stdout)
    assert table["final"] == [_value(col, row) for row in table["rows"]]


def test_upsilon_round_trip_deep_mixed_formula(tmp_path):
    f, _, removable = _mixed()
    trace = tmp_path / "t.json"
    enc = run_cli("transform", "upsilon", _write(tmp_path, "f.txt", render(f)), "-t", str(trace))
    assert enc.returncode == 0
    assert len(json.loads(trace.read_text())["removed_negations"]) == removable
    assert enc.stdout.count("!") == render(f).count("!") - removable
    dec = run_cli(
        "transform", "upsilon-inv", _write(tmp_path, "g.txt", enc.stdout), "-t", str(trace)
    )
    assert (dec.returncode, dec.stdout) == (0, render(f) + "\n")


@pytest.fixture(scope="module")
def negations_1100():
    return prove_tautology(parse("!" * 1100 + "(p or !p)"))


def test_prove_and_check_under_1100_negations(negations_1100):
    proof = negations_1100
    assert len(proof.lines) == 8281
    assert proof.lines[-1].formula is parse("!" * 1100 + "(p or !p)")
    assert check_proof(proof).accepted


def test_dump_and_load_under_1100_negations(negations_1100, monkeypatch):
    """Lines of about 2,000 characters whose formulas' node texts sum to
    about 600,000: proof I/O's text budget runs out on many lines, not only
    on the first, and those are written by plain ``render``."""
    proof = negations_1100
    plain = []
    monkeypatch.setattr("plogic.proof.io.render", lambda f: plain.append(f) or render(f))
    text, as_json = proof_to_text(proof), proof_to_json(proof)
    assert len(plain) > 10
    spell = functools.cache(render)  # the references share their formulas
    assert text == _reference_text(proof, spell)
    assert as_json == json.dumps(_reference_dict(proof, spell), indent=2) + "\n"
    assert load_proof(text) == proof
    assert load_proof(as_json) == proof


# A one-line AX2 proof whose metavariable A is 200,000 nested negations
# (about 600 KB): proof I/O's per-load text memo must stay within a bound,
# since the canonical texts of all of A's nodes would sum to 2 * 10^10
# characters.
_DEEP_AX2 = """
from plogic.proof import check_proof, load_proof, proof_to_json, proof_to_text
a = "!" * 200000 + "p"
text = f"1. ({a} imp ({a} or q)) ; AX2 [A:={a}, B:=q]\\n"
proof = load_proof(text)
assert check_proof(proof).accepted
assert proof_to_text(proof) == text
assert load_proof(proof_to_json(proof)) == proof
"""


def test_load_check_and_dump_a_600_kb_deep_proof_in_1_gb():
    limit = 1_000_000 * 1024  # ulimit -v 1000000
    result = subprocess.run(
        [sys.executable, "-c", _DEEP_AX2],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("kind", ["negations", "spine"])
def test_repr_pickle_and_copy_take_any_depth(kind):
    assert sys.getrecursionlimit() <= 1000
    f = parse(DEEP) if kind == "negations" else _mixed()[0]
    assert repr(f) == str(f) == f"parse({render(f)!r})"
    assert eval(repr(f), {"parse": parse}) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, f]) == [f, f]
