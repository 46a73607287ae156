"""Proof and trace serialization: every proof or trace file is decoded here.

Text format, one line per proof step (`.` is the empty path):

    1. (p or (p or p)) ; AX2 [A:=p, B:=p]
    2. (!p or (p or p)) ; DEF IMP UNFOLD @ .
    3. q ; MP 5,2

The JSON mirror carries the same fields plus the goal.  Both formats
round-trip exactly through the formula parser.  An upsilon trace is the
JSON object ``{"removed_negations": ["CL", ...]}``, one path string per
removed negation, in removal order.  Loading checks every field; a
malformed one raises a ParseError that names it (``lines[3].just.direction``
in JSON, ``line 4`` in text, ``removed_negations[1]`` in a trace).

Proof lines share most of their subformulas, so each call keeps a
``TextMemo``, and nothing outlives the call.  Dump and load share its one
walk, which writes each node's canonical text once, from its children's
kept texts, so a line costs only the nodes that earlier lines lack.  A
dump writes each formula as the memo spells it.  A load hands each line
to a ``checker.Judge`` as it is read: the Judge derives what the line's
justification gives, the memo spells that, and a line spelled so takes
the derived node instead of a parse; then the Judge compares the line
with it.  The loaded proof keeps the Judge, so ``check_proof`` replays
no line again; the loader itself knows no proof rule and compares no
line.  A deep formula's node texts sum to O(nodes × depth), so the
memo keeps texts only up to ``_TEXT_BUDGET`` (2) times the formula text
read or written so far; past that, a dump writes with plain ``render``
and a load parses.  On a shared 2-vCPU host with Python 3.11, the four
main results (0.65 MB as text, 1.1 MB as JSON) dump in about 0.02 s as
text and 0.04 s as JSON.  They load, each line judged, in about 0.04 s
from either format (the fastest of 30 runs), after which ``check_proof``
on all four takes about 0.5 ms.
"""

from __future__ import annotations

import json
import re

from ..errors import ParseError, PathError
from ..formula import Formula, Not, Operator, Path, path_from_str, path_to_str
from ..parser import TextMemo, parse, render
from ..transforms import EncryptionTrace
from .checker import CheckResult, Judge
from .objects import (
    AxiomJust,
    DefJust,
    Direction,
    Justification,
    MPJust,
    Proof,
    ProofLine,
    axiom_just,
)

_NEWLINE_RE = re.compile(r"\r\n?|\n")  # universal newlines; str.splitlines adds \f, \x85, ...
# On a stripped line; the formula, group 2, still needs its right end stripped.
_LINE_RE = re.compile(r"(\d+)\.\s*([^;]*);\s*(.*)")
_AXIOM_RE = re.compile(r"AX(\d+)\s*\[(.*)\]\s*$")
_MP_RE = re.compile(r"MP\s+(\d+)\s*,\s*(\d+)\s*$")
_DEF_RE = re.compile(r"DEF\s+(\w+)\s+(UNFOLD|FOLD)\s+@\s+(\S+)\s*$")


def _just_to_text(just: Justification, memo: TextMemo) -> str:
    if isinstance(just, AxiomJust):
        bindings = ", ".join(f"{v}:={_spell(memo, f)}" for v, f in just.subst)
        return f"AX{just.schema} [{bindings}]"
    if isinstance(just, MPJust):
        return f"MP {just.major},{just.minor}"
    if isinstance(just, DefJust):
        path = path_to_str(just.path) or "."
        return f"DEF {just.name.name} {just.direction.value} @ {path}"
    raise ValueError(f"cannot serialize justification {just!r}")


def _number(digits: str, where: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on int() digits
        raise ParseError(f"{where}: number too long ({len(digits)} digits)") from None


_TEXT_BUDGET = 2  # kept node texts, in characters per formula character read or written


def _spell(memo: TextMemo, f: Formula) -> str:
    """``render(f)`` for a dump: through ``memo`` while its budget lasts, and
    the text written raises that budget."""
    text = memo.spell(f) or render(f)
    memo.budget += _TEXT_BUDGET * len(text)
    return text


class _Known:
    """One load's ``Judge``, and its map from canonical text to node, so
    that a formula is looked up instead of parsed when the Judge derived it
    from earlier lines.

    Every key is ``render`` output, so a hit is exactly what ``parse`` would
    return, as is the negation of a key's node for ``!`` and the key; any
    other spelling misses and is parsed.  Each derived formula adds its
    nodes through ``TextMemo.spell``, whose budget grows by ``_TEXT_BUDGET``
    times the formula text read, the line's own text included; once it is
    spent, later misses are parsed.
    """

    def __init__(self):
        self.nodes: dict[str, Formula] = {}
        self.memo = TextMemo(self.nodes)
        self.judge = Judge()

    def formula(self, text: str, where: str) -> Formula:
        """``_lookup(text, where)``, with ``text`` counted into the budget."""
        self.memo.budget += _TEXT_BUDGET * len(text)
        return self._lookup(text, where)

    def _lookup(self, text: str, where: str) -> Formula:
        """``parse(text)``, with ``where`` prefixing an error."""
        if text in self.nodes:
            return self.nodes[text]
        if text[:1] == "!" and text[1:] in self.nodes:  # how render writes a Not
            return Not(self.nodes[text[1:]])
        try:
            return parse(text)
        except ParseError as exc:
            raise type(exc)(f"{where}: {exc}", exc.position) from None

    def line(self, index: int, text: str, decode_just, where: str) -> ProofLine:
        """The next line, numbered ``index``, its formula spelled ``text`` and
        its justification read by ``decode_just()``, once the Judge has taken
        it; when both are malformed, the formula's error is raised."""
        self.memo.budget += _TEXT_BUDGET * len(text)
        try:
            just = decode_just()
        except ParseError:
            self._lookup(text, where)
            raise
        derived = self.judge.derive(just)  # a CheckResult if the line is bad
        if isinstance(derived, CheckResult) or self.memo.spell(derived) != text:
            derived = self._lookup(text, where)
        line = ProofLine(index, derived, just)
        self.judge.take(line)
        return line


def _path(text: str, where: str) -> Path:
    try:
        return path_from_str(text)
    except PathError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _def_just(name: str, direction: str, path: str, where: str) -> DefJust:
    """A DEF justification from its three fields; an error names the field
    after the prefix ``where``."""
    if name not in Operator.__members__:
        raise ParseError(f"{where}name: unknown definition name {name!r}")
    if direction not in Direction.__members__:
        raise ParseError(f"{where}direction: expected UNFOLD or FOLD, found {direction!r}")
    return DefJust(Operator[name], _path(path, f"{where}path"), Direction[direction])


def _just_from_text(text: str, where: str, known: _Known) -> Justification:
    m = _AXIOM_RE.match(text)
    if m:
        subst = {}
        body = m.group(2).strip()
        if body:
            for part in body.split(","):
                var, _, formula_text = part.partition(":=")
                var = var.strip()
                if var in subst:
                    raise ParseError(f"{where}: duplicate binding for {var}")
                subst[var] = known.formula(formula_text, where)
        return axiom_just(_number(m.group(1), where), subst)
    m = _MP_RE.match(text)
    if m:
        return MPJust(_number(m.group(1), where), _number(m.group(2), where))
    m = _DEF_RE.match(text)
    if m:
        path_text = m.group(3)
        return _def_just(
            m.group(1), m.group(2), "" if path_text == "." else path_text, f"{where}: DEF "
        )
    raise ParseError(f"{where}: unrecognized justification {text!r}")


def proof_to_text(proof: Proof) -> str:
    memo = TextMemo()
    out = []
    for line in proof.lines:
        just = _just_to_text(line.just, memo)  # the terms first, for the formula
        out += (str(line.index), ". ", _spell(memo, line.formula), " ; ", just, "\n")
    del memo  # its inner nodes' texts, before the join copies the lines
    return "".join(out)


def proof_from_text(text: str) -> Proof:
    known = _Known()
    lines: list[ProofLine] = []
    for number, raw in enumerate(_NEWLINE_RE.split(text), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        where = f"line {number}"
        m = _LINE_RE.match(raw)
        if m is None:
            raise ParseError(f"{where}: unparseable proof line {raw!r}")
        index = _number(m.group(1), where)
        lines.append(known.line(
            index, m.group(2).rstrip(), lambda: _just_from_text(m.group(3), where, known), where
        ))
    if not lines:
        raise ParseError("proof file has no lines")
    return Proof(goal=lines[-1].formula, lines=lines, judge=known.judge)


def _just_to_dict(just: Justification, memo: TextMemo) -> dict:
    if isinstance(just, AxiomJust):
        return {
            "kind": "axiom",
            "schema": just.schema,
            "subst": {v: _spell(memo, f) for v, f in just.subst},
        }
    if isinstance(just, MPJust):
        return {"kind": "mp", "major": just.major, "minor": just.minor}
    if isinstance(just, DefJust):
        return {
            "kind": "def",
            "name": just.name.name,
            "direction": just.direction.value,
            "path": path_to_str(just.path),
        }
    raise ValueError(f"cannot serialize justification {just!r}")


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _field(data: dict, key: str, kind: type, where: str):
    """``data[key]``, which must be exactly of type ``kind`` (so not a bool
    for an int); ``where`` names ``data`` in an error."""
    name = f"{where}.{key}" if where else key
    if key not in data:
        raise ParseError(f"{name}: missing")
    value = data[key]
    if type(value) is not kind:
        raise ParseError(f"{name}: expected {_JSON_TYPES[kind]}")
    return value


def _just_from_dict(data: dict, where: str, known: _Known) -> Justification:
    kind = _field(data, "kind", str, where)
    if kind == "axiom":
        schema = _field(data, "schema", int, where)
        subst = {}
        for var, text in _field(data, "subst", dict, where).items():
            if type(var) is not str or type(text) is not str:
                raise ParseError(f"{where}.subst: expected strings mapped to strings")
            subst[var] = known.formula(text, f"{where}.subst.{var}")
        return axiom_just(schema, subst)
    if kind == "mp":
        return MPJust(_field(data, "major", int, where), _field(data, "minor", int, where))
    if kind == "def":
        return _def_just(
            _field(data, "name", str, where),
            _field(data, "direction", str, where),
            _field(data, "path", str, where),
            f"{where}.",
        )
    raise ParseError(f"{where}.kind: unknown justification kind {kind!r}")


def proof_to_dict(proof: Proof) -> dict:
    memo = TextMemo()
    lines = []
    for line in proof.lines:
        just = _just_to_dict(line.just, memo)  # the terms first, for the formula
        lines.append({"index": line.index, "formula": _spell(memo, line.formula), "just": just})
    return {"goal": _spell(memo, proof.goal), "lines": lines}


def proof_from_dict(data: dict) -> Proof:
    if type(data) is not dict:
        raise ParseError("proof: expected an object")
    known = _Known()
    lines = []
    for k, entry in enumerate(_field(data, "lines", list, "")):
        where = f"lines[{k}]"
        if type(entry) is not dict:
            raise ParseError(f"{where}: expected an object")
        lines.append(known.line(
            _field(entry, "index", int, where),
            _field(entry, "formula", str, where),
            lambda: _just_from_dict(_field(entry, "just", dict, where), f"{where}.just", known),
            f"{where}.formula",
        ))
    if not lines:
        raise ParseError("lines: proof has no lines")
    goal = known.formula(_field(data, "goal", str, ""), "goal")
    return Proof(goal=goal, lines=lines, judge=known.judge)


_quote = json.encoder.encode_basestring_ascii  # the C encoder's string writer


def _scalar(value) -> str:
    """A JSON value that holds no other, as ``json.dumps`` writes it."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)  # true, false, null or a float


def to_json(data) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, for ``data`` built of
    dicts keyed by strings, lists, strings, ints, bools and None.

    An indented ``json.dumps`` runs the pure-Python encoder; here each
    string goes through the C one, and only the 2-space layout is Python.
    One loop over a stack of open containers, so any depth is written
    without recursion.
    """
    out: list[str] = []
    # per open container: its members as (text before, value), the newline
    # and indent its members start with, and the text that closes it
    stack = [(iter([("", data)]), "\n", "")]
    while stack:
        members, indent, close = stack[-1]
        for head, value in members:
            out.append(head)
            kind = type(value)
            if kind is not dict and kind is not list:
                out.append(_scalar(value))
            elif not value:
                out.append("{}" if kind is dict else "[]")
            else:
                inner = indent + "  "
                lead = "," + inner
                if kind is dict:
                    heads = [lead + _quote(key) + ": " for key in value]
                    out.append("{")
                    stack.append((zip(heads, value.values()), inner, indent + "}"))
                else:
                    heads = [lead] * len(value)
                    out.append("[")
                    stack.append((zip(heads, value), inner, indent + "]"))
                heads[0] = heads[0][1:]  # no comma before the first member
                break
        else:
            stack.pop()
            out.append(close)
    return "".join(out)


def proof_to_json(proof: Proof) -> str:
    """``json.dumps(proof_to_dict(proof), indent=2) + "\\n"``, byte for byte.
    An indented ``json.dumps`` runs the pure-Python encoder; here each string
    goes through the C one, and only the fixed 2-space layout is Python."""
    data = proof_to_dict(proof)
    lines = []
    for line in data["lines"]:
        members = []
        for key, value in line["just"].items():
            if type(value) is dict:  # an axiom's substitution
                terms = [_quote(var) + ": " + _quote(text) for var, text in value.items()]
                value = "{\n          " + ",\n          ".join(terms) + "\n        }" if terms else "{}"
            else:
                value = _scalar(value)
            members.append(_quote(key) + ": " + value)
        lines.append(
            '{\n      "index": ' + _scalar(line["index"])
            + ',\n      "formula": ' + _quote(line["formula"])
            + ',\n      "just": {\n        ' + ",\n        ".join(members) + "\n      }\n    }"
        )
    body = "[\n    " + ",\n    ".join(lines) + "\n  ]" if lines else "[]"
    return '{\n  "goal": ' + _quote(data["goal"]) + ',\n  "lines": ' + body + "\n}\n"


def _json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from None


def proof_from_json(text: str) -> Proof:
    return proof_from_dict(_json(text))


def load_proof(text: str) -> Proof:
    """Read a proof in either format; JSON files start with a brace."""
    if text.lstrip().startswith("{"):
        return proof_from_json(text)
    return proof_from_text(text)


def trace_to_dict(trace: EncryptionTrace) -> dict:
    return {"removed_negations": [path_to_str(p) for p in trace.removed_negations]}


def trace_from_json(text: str) -> EncryptionTrace:
    data = _json(text)
    if type(data) is not dict:
        raise ParseError("trace: expected an object")
    paths = []
    for k, path in enumerate(_field(data, "removed_negations", list, "")):
        where = f"removed_negations[{k}]"
        if type(path) is not str:
            raise ParseError(f"{where}: expected a string")
        paths.append(_path(path, where))
    return EncryptionTrace(tuple(paths))
