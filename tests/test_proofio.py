import gc
import itertools
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from plogic import Bin, Dialect, parse, render, upsilon_decrypt, upsilon_encrypt
from plogic.errors import ParseError
from plogic.formula import path_to_str
from plogic.proof import (
    AxiomJust,
    CheckResult,
    DefJust,
    MPJust,
    Proof,
    ProofLine,
    check_proof,
    load_proof,
    proof_from_json,
    proof_from_text,
    proof_to_json,
    proof_to_text,
    prove_main_results,
    prove_tautology,
)
from plogic.proof.io import trace_from_json, trace_to_dict

from test_proof_checker import REJECTION_DETAILS


@pytest.fixture(scope="module")
def sample_proof():
    return prove_tautology(parse("!(p and !p)"))


def test_text_round_trip(sample_proof):
    text = proof_to_text(sample_proof)
    back = proof_from_text(text)
    assert back == sample_proof
    assert check_proof(back).accepted


def test_json_round_trip(sample_proof):
    back = proof_from_json(proof_to_json(sample_proof))
    assert back == sample_proof


def test_text_line_shape(sample_proof):
    first = proof_to_text(sample_proof).splitlines()[0]
    # "<index>. <formula> ; <rule>"
    assert first.startswith("1. ")
    assert " ; " in first


def test_def_lines_spell_the_empty_path_as_a_dot():
    text = proof_to_text(prove_tautology(parse("p imp p")))
    assert "DEF IMP FOLD @ ." in text


def test_load_proof_detects_json(sample_proof):
    assert load_proof(proof_to_json(sample_proof)) == sample_proof
    assert load_proof(proof_to_text(sample_proof)) == sample_proof


def test_comments_and_blank_lines_are_skipped(sample_proof):
    # Only \n, \r\n and \r end a line: a form feed or U+2028 is whitespace.
    for header, first in [
        ("# generated\n\n", 3), ("# page one\x0cpage two\n", 2), ("# a\u2028b\r\n\r", 3)
    ]:
        assert proof_from_text(header + proof_to_text(sample_proof)) == sample_proof
        with pytest.raises(ParseError, match=f"^line {first}: unrecognized justification"):
            proof_from_text(header + "1. p ; ZAP")


def test_malformed_text_raises():
    with pytest.raises(ParseError):
        proof_from_text("1. p or q\n")  # missing justification
    with pytest.raises(ParseError):
        proof_from_text("1. p or q ; ZAP 3\n")
    with pytest.raises(ParseError):
        proof_from_text("   \n")


def test_json_carries_the_goal(sample_proof):
    payload = json.loads(proof_to_json(sample_proof))
    assert payload["goal"] == "!(p and !p)"
    kinds = {entry["just"]["kind"] for entry in payload["lines"]}
    assert kinds <= {"axiom", "mp", "def"}


MISSING = object()

# (keys to the edited JSON value, new value or MISSING, exact error message);
# in the sample proof, entry 0 is an AX3 line, entry 5 a DEF line and
# entry 6 an MP line.
MALFORMED_JSON = [
    ((), [], "proof: expected an object"),
    (("lines",), "x", "lines: expected a list"),
    (("goal",), MISSING, "goal: missing"),
    (("goal",), "p or", "goal: expected a formula at position 4"),
    (("lines", 2), 7, "lines[2]: expected an object"),
    (("lines", 3, "just"), MISSING, "lines[3].just: missing"),
    (("lines", 0, "index"), "1", "lines[0].index: expected an integer"),
    (("lines", 0, "index"), True, "lines[0].index: expected an integer"),
    (("lines", 0, "formula"), 5, "lines[0].formula: expected a string"),
    (("lines", 0, "formula"), "p or", "lines[0].formula: expected a formula at position 4"),
    (("lines", 0, "just", "kind"), "premise",
     "lines[0].just.kind: unknown justification kind 'premise'"),
    (("lines", 0, "just", "schema"), "3", "lines[0].just.schema: expected an integer"),
    (("lines", 0, "just", "subst"), ["A"], "lines[0].just.subst: expected an object"),
    (("lines", 0, "just", "subst", "A"), 1,
     "lines[0].just.subst: expected strings mapped to strings"),
    (("lines", 0, "just", "subst", "A"), "%",
     "lines[0].just.subst.A: unknown token '%' at position 0"),
    (("lines", 6, "just", "major"), 5.0, "lines[6].just.major: expected an integer"),
    (("lines", 6, "just", "minor"), MISSING, "lines[6].just.minor: missing"),
    (("lines", 5, "just", "name"), "FOO", "lines[5].just.name: unknown definition name 'FOO'"),
    (("lines", 5, "just", "direction"), "SIDEWAYS",
     "lines[5].just.direction: expected UNFOLD or FOLD, found 'SIDEWAYS'"),
    (("lines", 5, "just", "path"), "LX", "lines[5].just.path: invalid path string 'LX'"),
]


def _edited_json(proof, keys, value):
    data = json.loads(proof_to_json(proof))
    if not keys:
        return json.dumps(value)
    target = data
    for key in keys[:-1]:
        target = target[key]
    if value is MISSING:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return json.dumps(data)


@pytest.mark.parametrize("keys, value, message", MALFORMED_JSON)
def test_malformed_json_names_the_field(sample_proof, keys, value, message):
    with pytest.raises(ParseError) as exc:
        proof_from_json(_edited_json(sample_proof, keys, value))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "just, message",
    [
        ("DEF IMP UNFOLD @ LX", "line 3: DEF path: invalid path string 'LX'"),
        ("DEF FOO UNFOLD @ .", "line 3: DEF name: unknown definition name 'FOO'"),
        ("ZAP 3", "line 3: unrecognized justification 'ZAP 3'"),
    ],
)
def test_malformed_text_justification_names_the_line(sample_proof, just, message):
    lines = proof_to_text(sample_proof).splitlines()
    lines[2] = lines[2].rpartition(";")[0] + "; " + just
    with pytest.raises(ParseError) as exc:
        proof_from_text("\n".join(lines))
    assert str(exc.value) == message


def test_json_proof_without_lines_names_the_field():
    with pytest.raises(ParseError) as exc:
        proof_from_json('{"goal": "p", "lines": []}')
    assert str(exc.value) == "lines: proof has no lines"


def test_duplicate_axiom_binding_is_rejected():
    with pytest.raises(ParseError) as exc:
        proof_from_text("1. ((p or p) imp p) ; AX1 [A:=q, A:=p]\n")
    assert str(exc.value) == "line 1: duplicate binding for A"


@pytest.mark.parametrize(
    "text",
    [
        '{"goal": ',
        '{"lines": ' + "[" * 100000 + "]" * 100000 + "}",
        '{"goal": "p", "lines": [], "n": ' + "1" * 5000 + "}",
    ],
    ids=["truncated", "deep", "long-int"],
)
def test_undecodable_json_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^invalid JSON: "):
        proof_from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        "1" * 5000 + ". p ; MP 1,1",
        "1. p ; MP 1," + "1" * 5000,
        "1. p ; AX" + "1" * 5000 + " [A:=p]",
    ],
    ids=["line-number", "mp-reference", "schema"],
)
def test_overlong_number_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc:
        proof_from_text(text)
    assert str(exc.value) == "line 1: number too long (5000 digits)"


# Fuzzing: whatever the input, loading either returns a proof, which the
# checker then judges, or raises a ParseError; nothing else escapes.

FUZZ_PROOF = prove_tautology(parse("!(p and !p)"))  # AX, MP and DEF lines

# Pieces of the proof formats, so that edits often stay nearly well formed.
_PIECES = st.sampled_from([
    "0", "1", "7", "99999", "-1", "9" * 40, ".", ",", ";", ":", " ", "\n", "#",
    "[", "]", "{", "}", '"', "A:=", "B:=", "C:=", "D:=", "p", "q", "!", "(", ")",
    " or ", " imp ", " nor ", " xiff ", "AX", "AX0", "AX5", "MP", "DEF", "IMP",
    "OR", "XOR", "UNFOLD", "FOLD", "@", "L", "R", "C", "LX", "é", "\x00", "\t",
])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | _PIECES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_PIECES, inner, max_size=3),
    max_leaves=6,
)


def _fresh_verdict(proof):
    """The verdict of a Judge that did not load ``proof``."""
    return check_proof(Proof(proof.goal, list(proof.lines)))


def _loads_or_rejects(text):
    try:
        proof = load_proof(text)
    except ParseError:
        return
    verdict = check_proof(proof)
    assert isinstance(verdict, CheckResult)
    assert verdict == _fresh_verdict(proof)


def _positions(data):
    """Every (container, key) in a decoded JSON document."""
    found = []
    todo = [data]
    while todo:
        node = todo.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    return found


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_text_proofs_load_or_raise_a_parse_error(data):
    text = proof_to_text(FUZZ_PROOF)
    for _ in range(data.draw(st.integers(1, 4))):
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(len(text), start + 12)))
        insert = "".join(data.draw(st.lists(_PIECES, max_size=4)))
        text = text[:start] + insert + text[end:]
    _loads_or_rejects(text)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_json_proofs_load_or_raise_a_parse_error(data):
    document = json.loads(proof_to_json(FUZZ_PROOF))
    for _ in range(data.draw(st.integers(1, 3))):
        positions = _positions(document)
        if not positions:
            break
        container, key = data.draw(st.sampled_from(positions))
        if data.draw(st.booleans()):
            container[key] = data.draw(_JSON_VALUES)
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    _loads_or_rejects(json.dumps(document))


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text().map(lambda t: "{" + t) | st.lists(_PIECES).map("".join))
def test_random_strings_load_or_raise_a_parse_error(text):
    _loads_or_rejects(text)


@pytest.mark.parametrize(
    "text", ["(p nor q)", "!(!(p nor q) nand !r)", "(p ↓ ¬(q ↓ r)) ⊕ (¬(p ↓ q) ↓ r)"]
)
def test_trace_round_trips_through_json(text):
    f = parse(text)
    stripped, trace = upsilon_encrypt(f)
    back = trace_from_json(json.dumps(trace_to_dict(trace)))
    assert back == trace
    assert upsilon_decrypt(stripped, back) is f


# Proof I/O memoises formula texts within one call.  These tests pin that
# the memo is a cache: a dump is the per-line rendering, and a load returns
# exactly what ``parse`` returns for each written formula.


def _reference_text(proof, spell=render):
    """The text format written line by line, each formula spelled by ``spell``."""
    out = []
    for line in proof.lines:
        just = line.just
        if isinstance(just, AxiomJust):
            rule = f"AX{just.schema} [" + ", ".join(f"{v}:={spell(f)}" for v, f in just.subst) + "]"
        elif isinstance(just, MPJust):
            rule = f"MP {just.major},{just.minor}"
        else:
            rule = f"DEF {just.name.name} {just.direction.value} @ {path_to_str(just.path) or '.'}"
        out.append(f"{line.index}. {spell(line.formula)} ; {rule}\n")
    return "".join(out)


def _reference_dict(proof, spell=render):
    """The JSON format's document, each formula spelled by ``spell``."""
    lines = []
    for line in proof.lines:
        just = line.just
        if isinstance(just, AxiomJust):
            rule = {"kind": "axiom", "schema": just.schema,
                    "subst": {v: spell(f) for v, f in just.subst}}
        elif isinstance(just, MPJust):
            rule = {"kind": "mp", "major": just.major, "minor": just.minor}
        else:
            rule = {"kind": "def", "name": just.name.name, "direction": just.direction.value,
                    "path": path_to_str(just.path)}
        lines.append({"index": line.index, "formula": spell(line.formula), "just": rule})
    return {"goal": spell(proof.goal), "lines": lines}


def _parse_every_formula(text):
    """Per canonical text line, ``parse`` of its formula and of its axiom
    substitution terms (a tuple of (metavariable, formula), else None).
    Each distinct text is parsed once."""
    parsed_texts = {}

    def parsed(t):
        if t not in parsed_texts:
            parsed_texts[t] = parse(t)
        return parsed_texts[t]

    lines = []
    for line in text.splitlines():
        head, _, rule = line.partition(" ; ")
        subst = None
        if rule.startswith("AX"):
            bindings = rule[rule.index("[") + 1 : -1].split(", ")
            subst = tuple((v, parsed(t)) for v, _, t in (b.partition(":=") for b in bindings))
        lines.append((parsed(head.partition(". ")[2]), subst))
    return lines


@pytest.fixture(scope="module")
def main_results():
    return prove_main_results()


@pytest.mark.parametrize("which", [0, 1, 2, 3, "fuzz"], ids=["a", "b", "c", "d", "fuzz"])
def test_dumps_and_loads_match_per_formula_references(main_results, which):
    proof = FUZZ_PROOF if which == "fuzz" else main_results[which]
    text = proof_to_text(proof)
    assert text == _reference_text(proof)
    as_json = proof_to_json(proof)
    assert as_json == json.dumps(_reference_dict(proof), indent=2) + "\n"
    reference = _parse_every_formula(text)
    for loaded in (load_proof(text), load_proof(as_json)):
        assert len(loaded.lines) == len(reference)
        for line, (formula, subst) in zip(loaded.lines, reference):
            assert line.formula is formula
            if subst is not None:
                assert all(a is b for (_, a), (_, b) in zip(line.just.subst, subst))
        assert loaded.goal is reference[-1][0]


SMALL_PROOF = prove_tautology(parse("(p or q) imp (q or p)"))

_SPELLINGS = {
    "unicode": lambda f: render(f, Dialect.UNICODE),
    "not": lambda f: render(f).replace("!", "not "),
    "spaces": lambda f: render(f).replace("(", "( ").replace(")", " )"),
    "no-outer-pair": lambda f: render(f)[1:-1] if isinstance(f, Bin) else render(f),
}


@pytest.mark.parametrize("proof", [FUZZ_PROOF, SMALL_PROOF], ids=["fuzz", "small"])
@pytest.mark.parametrize("spelling", [*_SPELLINGS, "every-other"])
def test_non_canonical_spellings_load_to_the_same_proof(proof, spelling):
    if spelling == "every-other":  # hits and misses interleave
        calls = itertools.count()
        spell = lambda f: _SPELLINGS["unicode"](f) if next(calls) % 2 else render(f)
    else:
        spell = _SPELLINGS[spelling]
    text = _reference_text(proof, spell)
    assert text != proof_to_text(proof)
    assert proof_from_text(text) == proof
    assert proof_from_json(json.dumps(_reference_dict(proof, spell))) == proof


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_an_axiom_line_loads_its_written_formula_not_the_instance(as_json):
    """So do an MP and a DEF line: the loader looks up what a line's rule
    derives, but a line spelled otherwise still loads as written."""
    for kind, reason in [
        (AxiomJust, "NotAnAxiomInstance"), (MPJust, "MPShapeMismatch"), (DefJust, "DefMismatch")
    ]:
        k = next(i for i, line in enumerate(FUZZ_PROOF.lines) if isinstance(line.just, kind))
        written = parse("!" + render(FUZZ_PROOF.lines[k].formula))
        if as_json:
            data = _reference_dict(FUZZ_PROOF)
            data["lines"][k]["formula"] = render(written)
            loaded = proof_from_json(json.dumps(data))
        else:
            lines = _reference_text(FUZZ_PROOF).splitlines(keepends=True)
            lines[k] = f"{k + 1}. {render(written)} ; {lines[k].partition(' ; ')[2]}"
            loaded = proof_from_text("".join(lines))
        assert loaded.lines[k].formula is written
        verdict = check_proof(loaded)
        assert (verdict.accepted, verdict.line, verdict.reason) == (False, k + 1, reason)


@pytest.mark.parametrize("dump", [proof_to_text, proof_to_json], ids=["text", "json"])
def test_loading_the_main_results_parses_few_formulas(main_results, monkeypatch, dump):
    """Nearly every line is looked up as what its rule derives from the lines
    above, so the four main results need 75 ``parse`` calls in either format."""
    files = [dump(proof) for proof in main_results]
    calls = []
    monkeypatch.setattr("plogic.proof.io.parse", lambda text: calls.append(text) or parse(text))
    assert [load_proof(text) for text in files] == main_results
    assert len(calls) < 200


@pytest.mark.parametrize("dump", [proof_to_text, proof_to_json], ids=["text", "json"])
def test_loading_the_main_results_parses_no_line_formula(main_results, monkeypatch, dump):
    """Only first-seen substitution terms are parsed: every line's formula,
    the first line's too, is looked up as what its rule derives."""
    files = [dump(proof) for proof in main_results]
    calls = []
    monkeypatch.setattr("plogic.proof.io.parse", lambda text: calls.append(text) or parse(text))
    assert [load_proof(text) for text in files] == main_results
    terms = {
        render(term)
        for proof in main_results
        for line in proof.lines
        if isinstance(line.just, AxiomJust)
        for _, term in line.just.subst
    }
    assert set(calls) <= terms


# A malformed formula's error wins over a malformed justification's, with
# the message and position loading gave before the memo.
@pytest.mark.parametrize(
    "text, message, position",
    [
        ("1. (p or ; AX2 [A:=%, B:=q]", "line 1: expected a formula at position 5", 5),
        ("1. (p or q ; ZAP 3", "line 1: missing ')' at position 7", 7),
        ("1. p q ; AX2 [A:=p, A:=q]", "line 1: unexpected 'q' at position 2", 2),
        ("1. (p or) ; DEF FOO UNFOLD @ .", "line 1: unmatched ')' at position 5", 5),
    ],
)
def test_a_bad_formula_beside_a_bad_text_justification_reports_the_formula(
    text, message, position
):
    with pytest.raises(ParseError) as exc:
        proof_from_text(text)
    assert (str(exc.value), exc.value.position) == (message, position)


@pytest.mark.parametrize(
    "formula, just, message, position",
    [
        ("p or", {"kind": "premise"}, "expected a formula at position 4", 4),
        ("(p or", {"kind": "axiom", "schema": 2, "subst": {"A": "%", "B": "q"}},
         "expected a formula at position 5", 5),
        ("p )", {}, "unmatched ')' at position 2", 2),
    ],
)
def test_a_bad_formula_beside_a_bad_json_justification_reports_the_formula(
    formula, just, message, position
):
    document = {"goal": "p", "lines": [{"index": 1, "formula": formula, "just": just}]}
    with pytest.raises(ParseError) as exc:
        proof_from_json(json.dumps(document))
    assert (str(exc.value), exc.value.position) == (f"lines[0].formula: {message}", position)


def test_a_load_keeps_no_formula_alive_after_its_proof_is_dropped():
    # Atoms no other test uses, so that only this proof holds these nodes.
    text = proof_to_text(prove_tautology(parse("!(percall and !percall)")))
    proof = load_proof(text)
    assert proof_to_text(proof) == text
    assert proof_to_json(proof)
    refs = [weakref.ref(line.formula) for line in proof.lines]
    del proof
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


# A load judges each line as it reads it, and ``check_proof`` reuses that
# judgement only while the proof holds exactly the lines it judged.  Its
# verdict must be the one a fresh check gives.

def _first(proof, kind):
    """The list position of the first line justified by ``kind``."""
    return next(k for k, line in enumerate(proof.lines) if isinstance(line.just, kind))


@pytest.mark.parametrize("which", [0, 1, 2, 3], ids=["a", "b", "c", "d"])
def test_a_loaded_main_result_gets_the_verdict_of_a_fresh_check(main_results, which):
    """Each mutant is edited in JSON, and written again as text."""
    proof = main_results[which]
    mp, ax, dfn = _first(proof, MPJust), _first(proof, AxiomJust), _first(proof, DefJust)
    mid = len(proof.lines) // 2
    edits = [
        ((), None, None),
        (("lines", mp, "just", "major"), 999, "BadMPReference"),
        (("lines", dfn, "just", "path"), "L" * 64, "DefMismatch"),
        (("lines", ax, "formula"), "!" + render(proof.lines[ax].formula), "NotAnAxiomInstance"),
        (("lines", mid, "index"), mid + 7, "BadLineIndex"),
        (("goal",), "(p or !p)", "GoalMismatch"),
    ]
    for keys, value, reason in edits:
        as_json = _edited_json(proof, keys, value) if keys else proof_to_json(proof)
        for text in (as_json, proof_to_text(load_proof(as_json))):
            loaded = load_proof(text)
            verdict = check_proof(loaded)
            assert verdict == _fresh_verdict(loaded)
            if reason is None or (keys == ("goal",) and text is not as_json):
                assert verdict.accepted  # a text file's goal is its last line
            else:
                assert (verdict.accepted, verdict.reason) == (False, reason)


@pytest.mark.parametrize("dump", [proof_to_text, proof_to_json], ids=["text", "json"])
@pytest.mark.parametrize(
    "lines,reason,detail", REJECTION_DETAILS, ids=[d for _, _, d in REJECTION_DETAILS]
)
def test_a_loaded_mutant_gets_the_verdict_of_a_fresh_check(dump, lines, reason, detail):
    loaded = load_proof(dump(Proof(lines[-1].formula, lines)))
    verdict = check_proof(loaded)
    assert verdict == _fresh_verdict(loaded)
    assert (verdict.accepted, verdict.line, verdict.reason, verdict.detail) == (
        False, len(lines), reason, detail,
    )


def test_an_unchanged_loaded_proof_is_not_replayed_again(replays):
    text = proof_to_text(FUZZ_PROOF)
    loaded = load_proof(text)
    assert len(replays) == len(loaded.lines)
    assert check_proof(loaded).accepted and check_proof(loaded).accepted
    assert len(replays) == len(loaded.lines)


_AX = _first(FUZZ_PROOF, AxiomJust)
_PREMISE = FUZZ_PROOF.lines[_first(FUZZ_PROOF, MPJust)].just.minor - 1  # an AX line


def _negated(line):
    return parse("!" + render(line.formula))


def _replace_line(lines):
    lines[_AX] = ProofLine(_AX + 1, _negated(lines[_AX]), lines[_AX].just)


def _rebind_premise(lines):
    lines[_PREMISE].formula = _negated(lines[_PREMISE])


def _rejustify(lines):
    lines[_AX].just = MPJust(999, 1)


def _renumber(lines):
    lines[_AX].index = _AX + 2


def _append(lines):
    lines.append(ProofLine(len(lines) + 1, lines[0].formula, lines[0].just))


def _pop(lines):
    lines.pop()


# (edit of a loaded proof's lines, the reason a fresh check rejects it for)
EDITS = [
    (_replace_line, "NotAnAxiomInstance"),
    (_rebind_premise, "NotAnAxiomInstance"),
    (_rejustify, "BadMPReference"),
    (_renumber, "BadLineIndex"),
    (_append, "GoalMismatch"),
    (_pop, "GoalMismatch"),
]


@pytest.mark.parametrize("edit, reason", EDITS, ids=[e.__name__.strip("_") for e, _ in EDITS])
def test_an_edited_loaded_proof_is_judged_afresh(edit, reason):
    """Each edit turns the accepted proof into a rejected one, which only
    a fresh judgement sees."""
    loaded = load_proof(proof_to_text(FUZZ_PROOF))
    assert check_proof(loaded).accepted
    edit(loaded.lines)
    verdict = check_proof(loaded)
    assert (verdict.accepted, verdict.reason) == (False, reason)
    assert verdict == _fresh_verdict(loaded)


@pytest.mark.parametrize("attr", ["just", "index", "formula"])
@pytest.mark.parametrize("where", ["rejected", "after"])
def test_an_edited_rejected_proof_gets_the_verdict_of_a_fresh_check(where, attr):
    """An in-place edit of the rejected line changes the verdict, and the
    load's Judge gives way to a fresh one.  An edit of a later line leaves
    the verdict, and the load's Judge keeps it unless the edit is of a
    formula, which the Judge keeps for every line."""
    lines = list(FUZZ_PROOF.lines)
    _replace_line(lines)
    loaded = load_proof(proof_to_text(Proof(FUZZ_PROOF.goal, lines)))
    before = check_proof(loaded)
    assert (before.line, before.reason) == (_AX + 1, "NotAnAxiomInstance")
    assert len(lines) - 1 > _AX  # the last line comes after the rejected one
    k = _AX if where == "rejected" else len(lines) - 1
    value = {"just": MPJust(999, 1), "index": 0, "formula": FUZZ_PROOF.lines[_AX].formula}
    setattr(loaded.lines[k], attr, value[attr])
    assert loaded.judge.judged(loaded.lines) == (where == "after" and attr != "formula")
    verdict = check_proof(loaded)
    assert (verdict == before) == (where == "after")
    assert verdict == _fresh_verdict(loaded)
