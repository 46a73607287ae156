import ast
import re

import pytest
from hypothesis import example, given, strategies as st

from plogic import Atom, Bin, Dialect, Not, Operator, parse, render
from plogic.errors import (
    AmbiguousChain,
    EmptyInput,
    ParseError,
    UnbalancedParens,
    UnexpectedToken,
    UnknownToken,
)
from plogic import parser
from plogic.parser import TextMemo
from plogic.proof import main_result_goals

from test_formula import formulas

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parses_the_nor_regrouping_formula():
    got = parse("(p ↓ ¬(q ↓ r)) ⊕ (¬(p ↓ q) ↓ r)")
    expected = Bin(
        Operator.XOR,
        Bin(Operator.NOR, P, Not(Bin(Operator.NOR, Q, R))),
        Bin(Operator.NOR, Not(Bin(Operator.NOR, P, Q)), R),
    )
    assert got == expected


def test_ascii_dialect():
    assert parse("(p nand (q nor r))") == Bin(
        Operator.NAND, P, Bin(Operator.NOR, Q, R)
    )
    assert parse("p -> q") == parse("p imp q")
    assert parse("p <-> q") == parse("p iff q")
    assert parse("not p") == parse("!p")


def test_chains_are_rejected():
    with pytest.raises(AmbiguousChain) as exc:
        parse("p or q or r")
    assert exc.value.position == 7
    with pytest.raises(AmbiguousChain):
        parse("(p or q or r)")


def test_negation_binds_tighter():
    assert parse("!p or q") == Bin(Operator.OR, Not(P), Q)
    assert parse("¬(p ∨ q)") == Not(Bin(Operator.OR, P, Q))


def test_outer_parens_optional_and_redundant_parens_ok():
    assert parse("p or q") == parse("(p or q)") == parse("((p or q))")


def test_whitespace_is_insignificant():
    assert parse("  ( p↓q )  ") == parse("(p nor q)")


def test_errors():
    with pytest.raises(EmptyInput):
        parse("   ")
    with pytest.raises(UnbalancedParens):
        parse("(p or q")
    with pytest.raises(UnbalancedParens):
        parse("p or q)")
    with pytest.raises(UnknownToken) as exc:
        parse("p % q")
    assert exc.value.position == 2
    with pytest.raises(UnexpectedToken):
        parse("p q")
    with pytest.raises(UnexpectedToken):
        parse("or")
    with pytest.raises(UnexpectedToken):
        parse("!")  # negation with nothing under it


# Exact class, message and position for every kind of malformed input.
MALFORMED = [
    ("", EmptyInput, "empty input", None),
    ("   ", EmptyInput, "empty input", None),
    ("p % q", UnknownToken, "unknown token '%' at position 2", 2),
    ("é", UnknownToken, "unknown token 'é' at position 0", 0),
    ("p - q", UnknownToken, "unknown token '-' at position 2", 2),
    ("<", UnknownToken, "unknown token '<' at position 0", 0),
    ("p <- q", UnknownToken, "unknown token '<' at position 2", 2),
    ("p1 or _q", UnknownToken, "unknown token '_' at position 6", 6),
    # every character is lexed before any grammar error is reported
    ("p q %", UnknownToken, "unknown token '%' at position 4", 4),
    (")", UnbalancedParens, "unmatched ')' at position 0", 0),
    ("p or q)", UnbalancedParens, "unmatched ')' at position 6", 6),
    ("()", UnbalancedParens, "unmatched ')' at position 1", 1),
    ("(p or q", UnbalancedParens, "missing ')' at position 7", 7),
    ("((p or q)", UnbalancedParens, "missing ')' at position 9", 9),
    ("(p q)", UnexpectedToken, "expected ')' at position 3, found 'q'", 3),
    ("(p or q r)", UnexpectedToken, "expected ')' at position 8, found 'r'", 8),
    ("p or q or r", AmbiguousChain,
     "operator chain is ambiguous at position 7; parenthesize one side", 7),
    ("(p ↓ q ↓ r)", AmbiguousChain,
     "operator chain is ambiguous at position 7; parenthesize one side", 7),
    ("p q", UnexpectedToken, "unexpected 'q' at position 2", 2),
    ("!(p) (q)", UnexpectedToken, "unexpected '(' at position 5", 5),
    ("or", UnexpectedToken, "expected a formula at position 0", 0),
    ("p or or q", UnexpectedToken, "expected a formula at position 5", 5),
    ("p ->", UnexpectedToken, "expected a formula at position 4", 4),
    ("!", UnexpectedToken, "expected a formula at position 1", 1),
    ("not", UnexpectedToken, "expected a formula at position 3", 3),
]


@pytest.mark.parametrize("text, error, message, position", MALFORMED)
def test_malformed_input_is_reported_exactly(text, error, message, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.position == position


def test_render_examples():
    assert render(Bin(Operator.NOR, P, Q), Dialect.UNICODE) == "(p ↓ q)"
    assert render(Not(Bin(Operator.IFF, P, Q)), Dialect.ASCII) == "!(p iff q)"


def test_render_round_trip_of_nand_regrouping():
    f = parse("(p ↑ ¬(q ↑ r)) ⊕ (¬(p ↑ q) ↑ r)")
    text = render(f, Dialect.UNICODE)
    assert text == "((p ↑ ¬(q ↑ r)) ⊕ (¬(p ↑ q) ↑ r))"
    assert parse(text) == f


@given(formulas())
def test_round_trip_both_dialects(f):
    assert parse(render(f, Dialect.ASCII)) == f
    assert parse(render(f, Dialect.UNICODE)) == f


@st.composite
def _sharing(draw):
    """Formulas, each later one possibly built from earlier ones, so that
    they share subterms with each other and within themselves."""
    pool = draw(st.lists(formulas(max_depth=3), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        op = draw(st.sampled_from([None, *Operator]))
        pool.append(Not(a) if op is None else Bin(op, a, b))
    return pool


@given(_sharing(), st.sampled_from(["none", "short", "ample"]), st.data())
def test_text_memo_spells_what_render_writes_within_its_budget(fs, budget, data):
    """Each call is granted no budget, too little for the formula's new node
    texts (so the walk stops inside it), or more than enough."""
    memo = TextMemo({})
    granted = 0
    for f in fs:
        if budget == "short":
            grant = data.draw(st.integers(1, len(render(f))))
        else:
            grant = 0 if budget == "none" else 10**9
        memo.budget += grant
        granted += grant
        text = memo.spell(f)
        assert text in (None, render(f))
        if budget != "short":
            assert (text is None) == (budget == "none")
    kept = list(memo.texts.values())
    assert all(parse(text) is node for node, text in memo.texts.items())
    assert memo.nodes == {text: node for node, text in memo.texts.items()}
    assert memo.budget == granted - sum(map(len, kept))
    assert not kept or sum(map(len, kept[:-1])) < granted  # over by at most the last node


@given(st.text(max_size=40))
def test_arbitrary_text_parses_or_raises_a_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


# Every spelling of both dialects, atoms (reserved-word prefixes among them),
# characters no token starts with, and whitespace of several kinds.
_PIECES = [
    "p", "q1", "orb", "Not", "(", ")", "!", "¬", "not",
    "or", "and", "imp", "->", "iff", "<->", "nor", "nand", "nimp", "xor", "xiff",
    "∨", "∧", "→", "↔", "↓", "↑", "←", "⊕", "↕",
    "%", "é", "<", "_",
]
_SPACES = ["", " ", "  ", "\t", "\n", "\u3000"]


@given(st.lists(st.tuples(st.sampled_from(_SPACES), st.sampled_from(_PIECES)), max_size=12),
       st.sampled_from(_SPACES))
@example([("", "("), ("", "p"), (" ", "p")], "")  # "expected ')' ..., found 'p'" quotes two
def test_an_error_position_is_a_token_start_naming_its_spelling(pieces, tail):
    """A token starts where a piece starts (pieces the lexer joins, as
    ``p`` and ``or``, start where the first does); the last spelling the
    message quotes, the one it found, is at the position; unknown
    characters win over grammar."""
    text, starts = "", set()
    for space, piece in pieces:
        text += space
        starts.add(len(text))
        text += piece
    text += tail
    unknown = [
        i for i, c in enumerate(text)
        if c in "%é_" or (c == "<" and not text.startswith("<->", i))
    ]
    try:
        parse(text)
    except ParseError as exc:
        error = exc
    else:
        assert not unknown
        return
    if unknown:
        assert type(error) is UnknownToken and error.position == unknown[0]
    if type(error) is EmptyInput:
        assert error.position is None and not text.strip()
        return
    assert error.position == len(text) or error.position in starts
    quoted = re.findall(r"'[^']*'", str(error))
    if quoted and error.position < len(text):
        assert text.startswith(ast.literal_eval(quoted[-1]), error.position)


def test_a_valid_parse_computes_no_position(monkeypatch):
    def no_position(*args):
        raise AssertionError("a position was computed for a valid text")

    monkeypatch.setattr(parser, "_error", no_position)
    for goal in main_result_goals():
        for dialect in Dialect:
            assert parse(render(goal, dialect)) is goal
    assert parse("!" * 3000 + "p") is parse("!" * 3000 + " p")
    with pytest.raises(AssertionError):
        parse("p q")


# Deep inputs are compared as text: dataclass equality itself recurses.
@pytest.mark.parametrize(
    "text, canonical",
    [
        ("!" * 3000 + "p", "!" * 3000 + "p"),
        ("!" * 3000 + "(p imp q)", "!" * 3000 + "(p imp q)"),
        ("(" * 1200 + "p" + ")" * 1200, "p"),
        ("(" * 1200 + "p imp q" + ")" * 1200, "(p imp q)"),
        ("(p or " * 1200 + "q" + ")" * 1200, "(p or " * 1200 + "q" + ")" * 1200),
        ("(" * 1200 + "p or q)" + " imp r)" * 1199, "(" * 1200 + "p or q)" + " imp r)" * 1199),
    ],
    ids=["negations", "negated-imp", "parens", "parens-imp", "right-nested", "left-nested"],
)
def test_depth_is_bounded_only_by_memory(text, canonical):
    assert render(parse(text)) == canonical
    memo = TextMemo()
    memo.budget = len(canonical) ** 2
    assert memo.spell(parse(text)) == canonical
    assert render(parse(canonical), Dialect.UNICODE) == canonical.replace(
        "!", "¬").replace(" imp ", " → ").replace(" or ", " ∨ ")
