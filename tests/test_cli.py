"""End-to-end runs of the command line tool."""

import argparse
import codecs
import json
import subprocess
import sys
from pathlib import Path

import pytest

from plogic import cli, parse, render
from plogic.errors import MissingAtom, MissingMetavariable, NoDual, TooManyAtoms, UnknownToken
from plogic.proof import (
    MPJust,
    proof_to_json,
    proof_to_text,
    prove_main_results,
    prove_tautology,
    regrouping_goals,
)
from test_proofio import MISSING, _edited_json

DATA = Path(__file__).parent / "data"


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "plogic.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def test_parse_echoes_canonical_form():
    result = run_cli("parse", "p ↓ ¬(q ↓ r)")
    assert result.returncode == 0
    assert result.stdout.strip() == "(p nor !(q nor r))"


def test_parse_json_reports_language_and_atoms():
    result = run_cli("parse", "--json", "(p nand (q nor r))")
    payload = json.loads(result.stdout)
    assert payload == {
        "formula": "(p nand (q nor r))",
        "language": "NFO_ONLY",
        "atoms": ["p", "q", "r"],
    }


def test_parse_error_exits_2():
    result = run_cli("parse", "p or q or r")
    assert result.returncode == 2
    assert "ambiguous" in result.stderr


def test_table_text_marks_final_column():
    result = run_cli("table", "(p nor q)")
    assert result.returncode == 0
    assert "[nor]" in result.stdout
    rows = [
        line.split("|")[1].split()
        for line in result.stdout.splitlines()
        if "|" in line and line.lstrip()[0] in "01"
    ]
    assert [r[1] for r in rows] == ["0", "0", "0", "1"]


def test_table_json_matches_golden():
    result = run_cli("table", "--json", "(p xor p)")
    expected = json.loads((DATA / "table_xor.json").read_text())
    assert json.loads(result.stdout) == expected


def test_table_text_matches_golden():
    result = run_cli("table", "(p nor q)")
    assert result.stdout == (DATA / "table_nor.txt").read_text()


def test_check_classifications():
    assert "TAUTOLOGY" in run_cli(
        "check", "(p or (q and r)) iff ((p or q) and (p or r))"
    ).stdout
    assert "CONTRADICTION" in run_cli(
        "check", "(p ↑ ¬(q ↑ r)) ⊕ (¬(p ↑ q) ↑ r)"
    ).stdout
    contingent = run_cli("check", "p")
    assert "CONTINGENT" in contingent.stdout
    assert "true at" in contingent.stdout and "false at" in contingent.stdout


def test_relate_reports_both_relations():
    result = run_cli(
        "relate",
        "--json",
        "(p and (q or r)) iff ((p and q) or (p and r))",
        "(p ↓ ¬(q ↑ r)) ⊕ (¬(p ↓ q) ↑ ¬(p ↓ r))",
    )
    payload = json.loads(result.stdout)
    assert payload["perpendicular"] is True
    assert payload["parallel"] is False
    assert result.returncode == 0


def test_relate_warns_on_unusual_language_classes():
    result = run_cli("relate", "p", "q")
    assert result.returncode == 0
    assert "warning" in result.stderr


def test_relate_warning_classes_each_side_on_its_own(capsys):
    # b holds all of a, so the part of a xor b's node list after a lacks
    # b's or; b still classes as mixed
    assert cli.main(["relate", "p or q", "(p or q) nor r"]) == 0
    assert capsys.readouterr().err == (
        "warning: relations are usually taken between a fundamental-only left side "
        "and a negated-only right side; classes here are FO_ONLY / MIXED\n"
    )


# Every --json payload, byte for byte: stdout is json.dumps(payload, indent=2)
# and a newline, with each non-ASCII character written as a \u escape.

UPSILON_IN = "(p ↓ ¬(q ↓ r)) ⊕ (¬(p ↓ q) ↓ r)"
UPSILON_OUT = "((p nor (q nor r)) xor ((p nor q) nor r))"
ATOMS_PQR = ["p", "q", "r"]

JSON_PAYLOADS = {
    "parse": (
        ["parse", "(p nand (q nor r))"],
        {"formula": "(p nand (q nor r))", "language": "NFO_ONLY", "atoms": ATOMS_PQR},
    ),
    "parse-unicode": (
        ["parse", "--unicode", "p nand !(q nor r)"],
        {"formula": "(p ↑ ¬(q ↓ r))", "language": "NFO_ONLY", "atoms": ATOMS_PQR},
    ),
    "check-tautology": (["check", "p or !p"], {"formula": "(p or !p)", "verdict": "TAUTOLOGY"}),
    "check-contingent-unicode": (
        ["check", "--unicode", "p and !q"],
        {
            "formula": "(p ∧ ¬q)",
            "verdict": "CONTINGENT",
            "true_at": {"p": 1, "q": 0},
            "false_at": {"p": 1, "q": 1},
        },
    ),
    "relate-parallel": (
        ["relate", "p or q", "!(p nor q)"],
        {"parallel": True, "perpendicular": False, "perpendicular_witness": {"p": 1, "q": 1}},
    ),
    "relate-perpendicular": (
        ["relate", "p or q", "p nor q"],
        {"parallel": False, "perpendicular": True, "parallel_witness": {"p": 1, "q": 1}},
    ),
    "relate-neither": (
        ["relate", "p and q", "p nor q"],
        {
            "parallel": False,
            "perpendicular": False,
            "parallel_witness": {"p": 1, "q": 1},
            "perpendicular_witness": {"p": 1, "q": 0},
        },
    ),
    "upsilon": (
        ["transform", "upsilon", UPSILON_IN],
        {"rule": "upsilon", "formula": UPSILON_OUT, "trace": {"removed_negations": ["LR", "RL"]}},
    ),
    "upsilon-unicode-nothing-removed": (
        ["transform", "upsilon", "--unicode", "!(p or !q)"],
        {"rule": "upsilon", "formula": "¬(p ∨ ¬q)", "trace": {"removed_negations": []}},
    ),
    "upsilon-inv": (
        ["transform", "upsilon-inv", UPSILON_OUT, "-t", "{trace}"],
        {"rule": "upsilon-inv", "formula": "((p nor !(q nor r)) xor (!(p nor q) nor r))"},
    ),
    "psi": (["transform", "psi", "(p nor q) xor r"], {"rule": "psi", "formula": "((p nor q) xiff r)"}),
    "psi-inv": (
        ["transform", "psi-inv", "(p nor q) xiff r"],
        {"rule": "psi-inv", "formula": "((p nor q) xor r)"},
    ),
    "desugar": (["transform", "desugar", "p nand q"], {"rule": "desugar", "formula": "!(p and q)"}),
}


@pytest.mark.parametrize("argv, payload", JSON_PAYLOADS.values(), ids=JSON_PAYLOADS.keys())
def test_json_output_is_indented_json_byte_for_byte(tmp_path, capsys, argv, payload):
    trace = tmp_path / "t.json"
    trace.write_text('{"removed_negations": ["LR", "RL"]}', encoding="utf-8")
    assert cli.main([arg.format(trace=trace) for arg in argv] + ["--json"]) == 0
    assert capsys.readouterr() == (json.dumps(payload, indent=2) + "\n", "")


def test_transform_round_trip_through_trace_file(tmp_path):
    trace = tmp_path / "t.json"
    original = "(p ↓ ¬(q ↓ r)) ⊕ (¬(p ↓ q) ↓ r)"
    enc = run_cli("transform", "upsilon", original, "-t", str(trace), "--unicode")
    assert enc.returncode == 0
    assert enc.stdout.strip() == "((p ↓ (q ↓ r)) ⊕ ((p ↓ q) ↓ r))"
    assert trace.read_text() == json.dumps({"removed_negations": ["LR", "RL"]}, indent=2) + "\n"
    dec = run_cli(
        "transform", "upsilon-inv", enc.stdout.strip(), "-t", str(trace), "--unicode"
    )
    assert dec.stdout.strip() == f"({original})"


def test_transform_desugar():
    result = run_cli("transform", "desugar", "(p nand q)")
    assert result.stdout.strip() == "!(p and q)"


def test_transform_psi_precondition_exits_3():
    result = run_cli("transform", "psi", "(p or q)")
    assert result.returncode == 3


def test_upsilon_inv_without_trace_is_a_usage_error():
    result = run_cli("transform", "upsilon-inv", "(p nor q)")
    assert result.returncode == 2


def test_formula_can_come_from_a_file(tmp_path):
    source = tmp_path / "f.txt"
    for text in ["(p ↓ q)\n", "\ufeff(p ↓ q)\n"]:  # with and without a byte order mark
        source.write_text(text, encoding="utf-8")
        result = run_cli("parse", f"@{source}")
        assert result.stdout.strip() == "(p nor q)"


def test_prove_verify_cycle(tmp_path):
    proof_file = tmp_path / "p.prf"
    prove = run_cli("prove", "(p or !p)", "-o", str(proof_file))
    assert prove.returncode == 0
    verify = run_cli("verify", str(proof_file))
    assert verify.returncode == 0
    assert "accepted" in verify.stdout


def test_prove_an_equivalence_past_the_generator_atom_limit(tmp_path):
    """The rewrite route needs no truth table, so GENERATOR_ATOM_LIMIT (10)
    binds only the case split: 12-operand nor regrouping proves and verifies."""
    proof_file = tmp_path / "rho12.prf"
    prove = run_cli("prove", render(regrouping_goals(12)[0]), "-o", str(proof_file))
    assert prove.returncode == 0, prove.stderr
    lines = prove.stdout.rsplit(": ", 1)[1].split()[0]
    verify = run_cli("verify", str(proof_file))
    assert (verify.returncode, verify.stdout) == (0, f"accepted ({lines} lines)\n")


def test_prove_json_format(tmp_path):
    proof_file = tmp_path / "p.json"
    run_cli("prove", "--json", "(p imp p)", "-o", str(proof_file))
    payload = json.loads(proof_file.read_text())
    assert payload["goal"] == "(p imp p)"
    verify = run_cli("verify", str(proof_file))
    assert verify.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--main-results", "-o", "x.prf"],
        ["--main-results", "(p or !p)"],
        ["(p or !p)", "-d", "out"],
    ],
    ids=["main-results-with-out", "main-results-with-formula", "formula-with-dir"],
)
def test_prove_rejects_an_argument_it_would_ignore(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["prove", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: plogic ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["prove", "(p or !p)"], ["relate", "p", "!p"]], ids=["prove", "relate"]
)
def test_unicode_is_a_usage_error_where_no_formula_is_printed(capsys, argv):
    # prove always writes ASCII proofs, and relate prints no formula
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--unicode"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: plogic ")
    assert err[1].endswith("unrecognized arguments: --unicode")


@pytest.mark.parametrize("rule", ["psi", "psi-inv", "desugar"])
def test_transform_trace_with_a_rule_that_has_none_is_a_usage_error(
    monkeypatch, capsys, tmp_path, rule
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", rule, "(p nor q) xor (p nor q)", "-t", "x.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: plogic ")
    assert err[1].endswith(f"{rule} takes no --trace")
    assert list(tmp_path.iterdir()) == []


def test_prove_non_tautology_exits_3_with_countermodel():
    result = run_cli("prove", "(p and q)")
    assert result.returncode == 3
    assert "false under" in result.stderr


def test_verify_rejects_corrupted_reference(tmp_path):
    proof_file = tmp_path / "p.prf"
    run_cli("prove", "(p or !p)", "-o", str(proof_file))
    lines = proof_file.read_text().splitlines()
    target = next(i for i, ln in enumerate(lines) if "; MP " in ln)
    prefix, _, refs = lines[target].rpartition("MP ")
    lines[target] = prefix + "MP 999," + refs.split(",")[1]
    proof_file.write_text("\n".join(lines) + "\n")
    result = run_cli("verify", str(proof_file))
    assert result.returncode == 4
    assert f"rejected at line {target + 1}" in result.stdout


def test_verify_json_proof_without_lines_exits_2(tmp_path):
    proof_file = tmp_path / "p.json"
    proof_file.write_text('{"goal": "p", "lines": []}', encoding="utf-8")
    result = run_cli("verify", str(proof_file))
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "parse error: lines: proof has no lines\n"
    )


def test_closed_output_pipe_exits_141_silently():
    # 4,096 rows, far more than the pipe holds, so the table is still being
    # written when the reader closes its end
    chain = "(a or (b or (c or (d or (e or (f or (g or (h or (i or (j or (k or m)))))))))))"
    with subprocess.Popen(
        [sys.executable, "-m", "plogic.cli", "table", chain],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"a b c d e f g h i j k m | ")
    assert (code, stderr) == (141, b"")


def test_closed_output_pipe_inside_the_json_value_lists_exits_141_silently():
    # the reader closes its end once the first column's values have begun,
    # so the close lands while the value lists are being written
    chain = "(a or (b or (c or (d or (e or (f or (g or (h or (i or (j or (k or m)))))))))))"
    with subprocess.Popen(
        [sys.executable, "-m", "plogic.cli", "table", "--json", chain],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        read = 0
        for line in iter(proc.stdout.readline, b""):
            if line == b'      "values": [\n':
                break
            read += 1
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert read > 4096 * 14  # every row, 14 lines each, was read before the close
    assert (code, stderr) == (141, b"")


@pytest.mark.slow
def test_main_results_directory(tmp_path):
    outdir = tmp_path / "out"
    result = run_cli("prove", "--main-results", "-d", str(outdir))
    assert result.returncode == 0
    files = sorted(outdir.glob("main-*.prf"))
    assert [f.name for f in files] == [
        "main-a.prf",
        "main-b.prf",
        "main-c.prf",
        "main-d.prf",
    ]
    for f in files:
        assert run_cli("verify", str(f)).returncode == 0


def _damaged_proof(keys, value) -> str:
    proof = prove_tautology(parse("!(p and !p)"))
    if keys is not None:
        return _edited_json(proof, keys, value)
    lines = proof_to_text(proof).splitlines()  # a text DEF line whose path is not a path
    lines[2] = lines[2].rpartition(";")[0] + "; DEF IMP UNFOLD @ LX"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "keys, value",
    [
        (("lines", 3, "just"), MISSING),
        (("lines", 0, "index"), "1"),
        (("lines", 5, "just", "direction"), "SIDEWAYS"),
        (("lines",), "x"),
        (("lines", 0, "formula"), 5),
        (None, None),
    ],
    ids=["missing-just", "string-index", "direction", "lines-not-a-list",
         "formula-not-a-string", "text-path"],
)
def test_verify_malformed_proof_exits_2_with_one_line(tmp_path, keys, value):
    proof_file = tmp_path / "p.prf"
    proof_file.write_text(_damaged_proof(keys, value), encoding="utf-8")
    result = run_cli("verify", str(proof_file))
    assert result.returncode == 2
    assert result.stderr.startswith("parse error: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "text", ["!" * 3000 + "p", "(" * 1200 + "p" + ")" * 1200], ids=["negations", "parens"]
)
def test_parse_deep_formula_file(tmp_path, text):
    source = tmp_path / "deep.txt"
    source.write_text(text, encoding="utf-8")
    result = run_cli("parse", f"@{source}")
    assert result.returncode == 0
    assert result.stdout == ("p" if text.startswith("(") else text) + "\n"


def test_parse_json_deep_formula_file(tmp_path):
    source = tmp_path / "deep.txt"
    source.write_text("!" * 3000 + "p", encoding="utf-8")
    result = run_cli("parse", "--json", f"@{source}")
    assert result.returncode == 0
    assert json.loads(result.stdout)["atoms"] == ["p"]


def test_verify_def_step_under_1200_negations(tmp_path):
    a = "!" * 1200 + "(p imp q)"
    unfolded = "!" * 1200 + "(!p or q)"
    proof_file = tmp_path / "deep.prf"
    proof_file.write_text(
        f"1. ({a} imp ({a} or q)) ; AX2 [A:={a}, B:=q]\n"
        f"2. ({unfolded} imp ({a} or q)) ; DEF IMP UNFOLD @ L{'C' * 1200}\n",
        encoding="utf-8",
    )
    result = run_cli("verify", str(proof_file))
    assert (result.returncode, result.stdout, result.stderr) == (0, "accepted (2 lines)\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "@{bad}"),
        ("verify", "{bad}"),
        ("transform", "upsilon-inv", "p", "--trace", "{bad}"),
    ],
    ids=["formula-file", "proof-file", "trace-file"],
)
def test_undecodable_file_exits_2_with_one_line(tmp_path, argv):
    bad = tmp_path / "bad.txt"
    for prefix, offset in [(b"", 5), (codecs.BOM_UTF8, 8)]:  # offsets count a BOM
        bad.write_bytes(prefix + b"p or \xff")
        result = run_cli(*(arg.format(bad=bad) for arg in argv))
        assert result.returncode == 2
        assert result.stderr == (
            f"parse error: {bad}: not UTF-8 text: invalid start byte at byte {offset}\n"
        )


@pytest.mark.parametrize("command", ["check", "verify"])
def test_a_file_may_start_with_a_byte_order_mark(tmp_path, command):
    if command == "check":
        text, arg = "(p or !p)\n", "@{}"
    else:
        text, arg = proof_to_text(prove_tautology(parse("p or !p"))), "{}"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    expected = run_cli(command, arg.format(plain))
    result = run_cli(command, arg.format(marked))
    assert expected.returncode == 0
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.stdout, "")


@pytest.mark.parametrize(
    "trace, message",
    [
        ("{}", "removed_negations: missing"),
        ("[1]", "trace: expected an object"),
        ('{"removed_negations": "L"}', "removed_negations: expected a list"),
        ('{"removed_negations": [1]}', "removed_negations[0]: expected a string"),
        ('{"removed_negations": ["L", "Q"]}', "removed_negations[1]: invalid path string 'Q'"),
        ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"removed_negations": [' + "9" * 5000 + "]}", "invalid JSON: Exceeds the limit"),
    ],
    ids=["empty", "not-an-object", "not-a-list", "not-a-string", "bad-path", "deep", "long-int"],
)
def test_malformed_trace_file_exits_2_naming_the_field(tmp_path, trace, message):
    path = tmp_path / "t.json"
    path.write_text(trace, encoding="utf-8")
    result = run_cli("transform", "upsilon-inv", "(p nor q)", "-t", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"parse error: {message}")
    assert result.stderr.count("\n") == 1


def test_trace_path_outside_the_formula_exits_3(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"removed_negations": ["LL"]}', encoding="utf-8")
    result = run_cli("transform", "upsilon-inv", "(p nor q)", "-t", str(path))
    assert result.returncode == 3
    assert result.stderr == "error: step L not applicable at position 'L'\n"


# Exit codes follow the error classes: a ParseError or an unreadable file
# exits 2, any other LogicError is a failed precondition and exits 3.

@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (NoDual("xiff has no partner in the duality pairing"), 3, "error"),
        (MissingAtom("q"), 3, "error"),
        (MissingMetavariable("B", 2), 3, "error"),
        (TooManyAtoms(30, 24), 3, "error"),
        (UnknownToken("unknown token '$' at position 2", 2), 2, "parse error"),
        (FileNotFoundError(2, "No such file or directory", "f.txt"), 2, "error"),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_exit_code_follows_the_error_class(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_check", fail)
    assert cli.main(["check", "p"]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


def test_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_table", fail)
    assert cli.main(["table", "p"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


# verify --json: one object, {accepted, line, reason, detail, lines}, on
# exit 0 and 4.  Each mutant edits the 16-line proof of (p or !p); in it,
# entry 0 is an AX2 line, entry 5 a DEF line and entry 6 an MP line.
# UnsupportedJustification is left out: the loader builds no other kind of
# line, so no file reaches it.

VERIFY_MUTANTS = [
    (("lines", 0, "just", "schema"), 3, 1, "NotAnAxiomInstance",
     "formula is not the stated AX3 instance"),
    (("lines", 6, "just", "major"), 9, 7, "BadMPReference",
     "references 9,2 must be earlier lines"),
    (("lines", 6, "just", "minor"), 3, 7, "MPShapeMismatch",
     "line 3 does not match the antecedent of line 6"),
    (("lines", 5, "just", "path"), "", 6, "DefMismatch",
     "subformula at path does not match the imp definition"),
    (("goal",), "(q or !q)", 16, "GoalMismatch", "last line does not equal the goal"),
    (("lines", 1, "index"), 3, 2, "BadLineIndex", "expected index 2, found 3"),
]


@pytest.fixture(scope="module")
def excluded_middle():
    return prove_tautology(parse("p or !p"))


def _verify_both_ways(path, capsys):
    """(code, stdout, stderr) of verify and of verify --json on ``path``."""
    runs = []
    for extra in ([], ["--json"]):
        code = cli.main(["verify", str(path), *extra])
        runs.append((code, *capsys.readouterr()))
    return runs


def test_verify_json_reports_an_accepted_proof(tmp_path, capsys, excluded_middle):
    path = tmp_path / "p.prf"
    path.write_text(proof_to_text(excluded_middle), encoding="utf-8")
    plain, machine = _verify_both_ways(path, capsys)
    assert plain == (0, "accepted (16 lines)\n", "")
    expected = {"accepted": True, "line": None, "reason": None, "detail": None, "lines": 16}
    assert machine == (0, json.dumps(expected, indent=2) + "\n", "")


@pytest.mark.parametrize(
    "keys, value, line, reason, detail", VERIFY_MUTANTS, ids=[m[3] for m in VERIFY_MUTANTS]
)
def test_verify_json_reports_each_rejection(
    tmp_path, capsys, excluded_middle, keys, value, line, reason, detail
):
    path = tmp_path / "p.json"
    path.write_text(_edited_json(excluded_middle, keys, value), encoding="utf-8")
    plain, machine = _verify_both_ways(path, capsys)
    assert plain == (4, f"rejected at line {line}: {reason} ({detail})\n", "")
    expected = {"accepted": False, "line": line, "reason": reason, "detail": detail, "lines": 16}
    assert machine == (4, json.dumps(expected, indent=2) + "\n", "")


def test_verify_json_on_a_malformed_file_exits_2_with_one_line(tmp_path, capsys, excluded_middle):
    path = tmp_path / "p.json"
    path.write_text(_edited_json(excluded_middle, ("lines",), "x"), encoding="utf-8")
    for run in _verify_both_ways(path, capsys):
        assert run == (2, "", "parse error: lines: expected a list\n")


def test_verify_replays_each_line_of_main_result_a_once(tmp_path, capsys, replays):
    """Loading judges each line, and the check reuses that judgement: 421
    replays for 421 lines per run, plain or ``--json``, accepted or not."""
    proof = prove_main_results()[0]
    text = proof_to_text(proof)
    mp = next(k for k, line in enumerate(proof.lines) if isinstance(line.just, MPJust))
    just = proof.lines[mp].just
    bad = text.replace(f" ; MP {just.major},{just.minor}\n", f" ; MP 999,{just.minor}\n", 1)
    accepted = {"accepted": True, "line": None, "reason": None, "detail": None, "lines": 421}
    rejected = {
        "accepted": False, "line": mp + 1, "reason": "BadMPReference",
        "detail": f"references 999,{just.minor} must be earlier lines", "lines": 421,
    }
    for name, body, expected in [
        ("main-a.prf", text, accepted),
        ("main-a.json", proof_to_json(proof), accepted),
        ("bad-a.prf", bad, rejected),
    ]:
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        replays.clear()
        plain, machine = _verify_both_ways(path, capsys)
        assert len(replays) == 2 * 421
        if expected["accepted"]:
            assert plain == (0, "accepted (421 lines)\n", "")
        else:
            verdict = f"rejected at line {mp + 1}: BadMPReference ({expected['detail']})\n"
            assert plain == (4, verdict, "")
        assert machine == (plain[0], json.dumps(expected, indent=2) + "\n", "")


def test_verify_reports_a_malformed_line_after_a_rejected_one(tmp_path, capsys, excluded_middle):
    lines = proof_to_text(excluded_middle).splitlines()
    mp = next(k for k, line in enumerate(lines) if " ; MP " in line)
    lines[mp] = lines[mp].rpartition("MP ")[0] + "MP 999,1"
    lines[mp + 1] = lines[mp + 1].rpartition(";")[0] + "; ZAP"
    path = tmp_path / "p.prf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for run in _verify_both_ways(path, capsys):
        assert run == (2, "", f"parse error: line {mp + 2}: unrecognized justification 'ZAP'\n")


# In-process calls: main builds its parser once per process, and each call
# parses its own argv as a fresh process would.

def test_in_process_calls_build_the_parser_once(monkeypatch, capsys):
    assert cli.main(["check", "p"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_arg_parser()
    assert len(built) == 8  # the count sees the top parser and its seven subcommands
    built.clear()
    for _ in range(50):
        assert cli.main(["check", "p"]) == 0
    assert built == []
    assert capsys.readouterr().out == "CONTINGENT\n  true at: {p=1}\n  false at: {p=0}\n" * 51


@pytest.mark.parametrize(
    "bad, good",
    [
        (["check"], ["check", "(p or !p)"]),
        (["table", "--bogus", "p"], ["table", "(p nor q)"]),
        (["transform", "psi", "(p xor q)", "-t", "{tmp}/x.json"], ["transform", "psi", "(p xor q)"]),
        (["prove", "(p or !p)", "-d", "{tmp}/out"], ["prove", "(p or !p)"]),
    ],
    ids=["check", "table", "transform", "prove"],
)
def test_a_usage_error_leaves_the_next_call_as_it_would_run_alone(capsys, tmp_path, bad, good):
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(tmp=tmp_path) for arg in bad])
    assert exc.value.code == 2
    capsys.readouterr()
    code = cli.main(good)
    alone = run_cli(*good)
    assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout)
    assert alone.returncode == 0


@pytest.mark.parametrize(
    "first, second",
    [
        (["prove", "--main-results", "-d", "{tmp}/D"], ["prove", "(p or !p)", "-o", "{tmp}/X"]),
        (
            ["transform", "upsilon", "(p ↓ ¬(q ↓ r)) ⊕ (¬(p ↓ q) ↓ r)", "-t", "{tmp}/T"],
            ["transform", "psi", "(p ↓ (q ↓ r)) ⊕ ((p ↓ q) ↓ r)"],
        ),
    ],
    ids=["prove", "transform"],
)
def test_a_call_inherits_no_option_from_the_one_before(
    monkeypatch, capsys, tmp_path, first, second
):
    first, second = ([arg.format(tmp=tmp_path) for arg in argv] for argv in (first, second))
    seen = []
    name = f"cmd_{first[0]}"
    command = getattr(cli, name)

    def recording(args):
        seen.append(vars(args).copy())
        return command(args)

    monkeypatch.setattr(cli, name, recording)
    assert cli.main(first) == 0
    capsys.readouterr()
    code = cli.main(second)
    out = capsys.readouterr().out
    assert seen[-1] == vars(cli.build_arg_parser().parse_args(second))
    alone = run_cli(*second)
    assert (code, out) == (alone.returncode, alone.stdout)
    assert alone.returncode == 0


# check and relate read both of their answers from one scan: two 4,096-row
# blocks whose witnesses all fall in the first cost one kernel pass.

def _chain13(op: str) -> str:
    """``((a0 op a1) op a2) ... op a12`` as text: 13 atoms, two blocks."""
    text = "a0"
    for i in range(1, 13):
        text = f"({text} {op} a{i})"
    return text


@pytest.mark.parametrize(
    "argv, witnesses",
    [
        (["check", _chain13("xor")], ["true at", "false at"]),
        (["relate", _chain13("or"), _chain13("nor")], ["differs at", "fails at"]),
    ],
    ids=["check", "relate"],
)
def test_check_and_relate_scan_the_table_once(kernel_passes, capsys, argv, witnesses):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert all(witness in out for witness in witnesses)
    assert len(kernel_passes) == 1
