"""The benchmark's workloads: seeded inputs, the operations run on them,
and the expected answer each operation's output is checked against.

Each workload is a stream of single-client, closed-loop operations; one
operation is the work of one ``plogic`` command.  ``build`` returns the
schedule the runner cycles through and a few warm-up operations.  Expected
answers come from ``oracle`` (semantics), from ``check_proof`` plus goal
equality (generated proofs), or from how a file was made (verify).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from plogic.cli import main as cli_main
from plogic.formula import Atom, Bin, Not, Operator, Step
from plogic.parser import parse
from plogic.proof.checker import check_proof
from plogic.proof.io import proof_to_dict, proof_to_json, proof_to_text
from plogic.proof.objects import AxiomJust, DefJust, Direction, MPJust, Proof, ProofLine
from plogic.proof.prover import main_result_goals, prove_tautology

import inputs
import oracle

# The checks of freshly generated proofs call the checker through this
# name, so that a traced run can time them apart from the operations.
check_fresh = check_proof

DOCUMENTED_EXIT_CODES = frozenset([0, 2, 3, 4])


class Mismatch(Exception):
    """An operation's output differs from the expected answer."""


@dataclass
class Op:
    key: str  # one input; every run of it must give the same answer
    kind: str
    run: Callable[[], object]
    # Raises Mismatch on a wrong answer; returns the work units done
    # (proof lines, or truth-table rows the answer needs).
    expect: Callable[[object], int]


@dataclass
class Workload:
    name: str
    unit: str  # what one work unit is: "lines" or "rows"
    schedule: list[Op]
    warmup: list[Op]
    # Timed once at the start of every run, outside the time budget, so that
    # a single long operation does not decide how many others fit in a run.
    first: list[Op] = field(default_factory=list)


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _exit(rc: int, want: int) -> None:
    if rc not in DOCUMENTED_EXIT_CODES:
        raise Mismatch(f"undocumented exit code {rc}")
    if rc != want:
        raise Mismatch(f"exit code {rc}, expected {want}")


def _once(check: Callable[[tuple], int]) -> Callable[[tuple], int]:
    """Check an input's first output in full; later outputs must match it."""
    seen: dict = {}

    def expect(output: tuple) -> int:
        rc, out, err = output
        digest = hashlib.blake2b(f"{rc}\0{err}\0{out}".encode()).digest()
        if "digest" in seen:
            if digest != seen["digest"]:
                raise Mismatch("output differs from the verified first output")
            return seen["work"]
        work = check(output)
        seen.update(digest=digest, work=work)
        return work

    return expect


# --- prove -------------------------------------------------------------------


def _prove_op(key: str, goal, workdir: Path) -> Op:
    if oracle.classify(goal)[0] != "TAUTOLOGY":
        raise ValueError(f"benchmark input {key} is not a tautology")
    text = oracle.render(goal)
    target = workdir / f"{key.replace(':', '-')}.prf"

    def run():
        # what `plogic prove F -o FILE` does
        proof = prove_tautology(parse(text))
        out = proof_to_text(proof)
        target.write_text(out, encoding="utf-8")
        return proof, out

    def expect(output) -> int:
        proof, out = output
        if not (oracle.same(proof.goal, goal) and oracle.same(proof.lines[-1].formula, goal)):
            raise Mismatch("proof does not end in the requested goal")
        result = check_fresh(proof)
        if not result.accepted:
            raise Mismatch(f"checker rejects line {result.line}: {result.reason}")
        if target.stat().st_size != len(out.encode()):
            raise Mismatch("proof file size differs from the serialized proof")
        return len(proof.lines)

    return Op(key, "prove", run, expect)


def build_prove(rng: random.Random, workdir: Path, small: bool) -> Workload:
    """Blocks of one main result plus four seeded tautologies.

    The main results are the paper's four regrouping biconditionals, the
    largest proofs a user asks for.  Each block adds, on 2 to 5 atoms: a
    duality identity (iff/xor-heavy, so definition unfolding does work), a
    3-atom clause whose complementary pair is (x iff y)/(x xor y) or
    (x xiff y)/(x xor y), and 4- and 5-atom clauses whose disjunctions are
    spelled with or/imp/and/nor/nand/nimp, so that every block uses all
    nine connectives and the case split runs over 8 to 32 branches.
    """
    goals = main_result_goals()
    duals = [Operator.OR, Operator.AND, Operator.IMP, Operator.IFF]
    schedule = []
    for b in range(2 if small else 4):
        if not small:
            schedule.append(_prove_op(f"prove:{b}:main", goals[b], workdir))
        schedule.append(_prove_op(f"prove:{b}:dual", inputs.dual_identity(rng, duals[b]), workdir))
        pair = "xiff" if b % 2 else "iff"
        schedule.append(_prove_op(f"prove:{b}:c3", inputs.clause(rng, 3, pair, ["nor", "imp"]), workdir))
        if not small:
            schedule.append(_prove_op(
                f"prove:{b}:c4", inputs.clause(rng, 4, "lit", ["or", "nand", "nimp", "imp"]), workdir))
            schedule.append(_prove_op(
                f"prove:{b}:c5", inputs.clause(rng, 5, "lit", ["or", "imp", "nor", "nand", "nimp"]), workdir))
    warm = _prove_op("prove:warm", inputs.clause(rng, 3, "lit", ["or", "nand", "imp"]), workdir)
    return Workload("prove", "lines", schedule, [warm])


# --- verify ------------------------------------------------------------------


def _verify_op(key: str, path: Path, lines: int, want_rc: int, want_out: str) -> Op:
    """``plogic verify FILE``; ``want_out`` is the whole stdout, or its
    prefix when it ends in '(' (the rejection detail is free text)."""

    def expect(output) -> int:
        rc, out, err = output
        _exit(rc, want_rc)
        ok = out.startswith(want_out) if want_out.endswith("(") else out == want_out
        if not ok:
            raise Mismatch(f"verdict {out.strip()!r}, expected {want_out.strip()!r}")
        return lines

    return Op(key, "verify", lambda: cli(["verify", str(path)]), expect)


def _accepted(lines: int) -> str:
    return f"accepted ({lines} lines)\n"


def _rejected(k: int, reason: str) -> str:
    return f"rejected at line {k}: {reason} ("


def _paths(f) -> list[tuple[str, object]]:
    """(path, node) for every node, preorder."""
    out, stack = [], [("", f)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        if isinstance(node, Not):
            stack.append((path + "C", node.child))
        elif isinstance(node, Bin):
            stack.append((path + "R", node.right))
            stack.append((path + "L", node.left))
    return out


def _with_op(f, path: str, op: Operator):
    """``f`` with the connective at ``path`` replaced by ``op``."""
    if not path:
        return Bin(op, f.left, f.right)
    step, rest = path[0], path[1:]
    if step == "C":
        return Not(_with_op(f.child, rest, op))
    if step == "L":
        return Bin(f.op, _with_op(f.left, rest, op), f.right)
    return Bin(f.op, f.left, _with_op(f.right, rest, op))


_REASON_BY_JUST = {AxiomJust: "NotAnAxiomInstance", MPJust: "MPShapeMismatch", DefJust: "DefMismatch"}


def _mutate(rng: random.Random, proof: Proof, kind: str) -> tuple[Proof, int, str]:
    """One of the checker test's mutation kinds; returns the line it breaks
    and the reason the checker must give."""
    lines = list(proof.lines)
    if kind == "op-swap":
        spots = []
        while not spots:
            k = rng.randrange(1, len(lines) + 1)
            line = lines[k - 1]
            spots = [(p, n) for p, n in _paths(line.formula) if isinstance(n, Bin)]
        path, node = rng.choice(spots)
        new_op = rng.choice([op for op in Operator if op is not node.op])
        lines[k - 1] = ProofLine(k, _with_op(line.formula, path, new_op), line.just)
        reason = _REASON_BY_JUST[type(line.just)]
    elif kind == "mp-ref":
        k = rng.choice([ln.index for ln in lines if isinstance(ln.just, MPJust)])
        just = lines[k - 1].just
        lines[k - 1] = ProofLine(k, lines[k - 1].formula, MPJust(len(lines) + 7, just.minor))
        reason = "BadMPReference"
    else:  # def-path: a path that runs past an atom of the rewritten line
        k = rng.choice([ln.index for ln in lines if isinstance(ln.just, DefJust) and ln.index > 1])
        just = lines[k - 1].just
        leaf = rng.choice([p for p, n in _paths(lines[k - 2].formula) if isinstance(n, Atom)])
        path = tuple(Step(c) for c in leaf + "C")
        lines[k - 1] = ProofLine(k, lines[k - 1].formula, DefJust(just.name, path, just.direction))
        reason = "DefMismatch"
    return Proof(goal=proof.goal, lines=lines), k, reason


def _write(path: Path, proof: Proof, as_json: bool) -> None:
    path.write_text(proof_to_json(proof) if as_json else proof_to_text(proof), encoding="utf-8")


def build_verify(rng: random.Random, workdir: Path, small: bool) -> Workload:
    """One main-result proof, then cycles over small proofs and mutants.

    The main result is proof (a), 7,450 lines of text, verified once per
    run.  The small proofs are 2- and 3-atom tautologies (about 550 and
    2,000 lines), each written as text and as JSON, and each with one mutant
    whose verdict is known from how it was made (operator swap, bad MP
    reference or invalid DEF path, as in the checker's test).  Loading
    reparses every formula, so these stress lex/parse and a checker that
    compares unshared trees; the prover only runs at set-up.
    """
    goals = [
        inputs.clause(rng, 2, "lit", ["or", "nand"]),
        inputs.clause(rng, 3, "lit", ["nimp", "or", "imp"]),
        inputs.clause(rng, 2, "lit", ["nor", "imp"]),
    ]
    if not small:
        goals += [
            inputs.clause(rng, 2, "lit", ["nimp", "or"]),
            inputs.clause(rng, 3, "lit", ["and", "nor", "nand"]),
            inputs.clause(rng, 2, "lit", ["and", "imp"]),
        ]
    kinds = ["op-swap", "mp-ref", "def-path"]
    files = []  # per proof: text, JSON, mutant
    for i, goal in enumerate(goals):
        proof = prove_tautology(goal)
        n = len(proof.lines)
        ops = []
        for fmt in ("prf", "json"):
            path = workdir / f"small-{i}.{fmt}"
            _write(path, proof, fmt == "json")
            ops.append(_verify_op(f"verify:{i}:{fmt}", path, n, 0, _accepted(n)))
        mutant, k, reason = _mutate(rng, proof, kinds[i % 3])
        fmt = rng.choice(["prf", "json"])
        path = workdir / f"mutant-{i}.{fmt}"
        _write(path, mutant, fmt == "json")
        ops.append(_verify_op(f"verify:{i}:mutant", path, n, 4, _rejected(k, reason)))
        files.append(ops)
    # Round-robin over the proofs, so any prefix of the cycle mixes sizes.
    schedule = [ops[j] for j in range(3) for ops in files]
    first = []
    if not small:
        main = prove_tautology(main_result_goals()[0])
        path = workdir / "main-a.prf"
        _write(path, main, False)
        n = len(main.lines)
        first.append(_verify_op("verify:main", path, n, 0, _accepted(n)))
    return Workload("verify", "lines", schedule, [schedule[0]], first)


def build_verify_malformed(rng: random.Random, workdir: Path, small: bool) -> Workload:
    """Untrusted-input defects known at this version; every op fails today.

    Not listed in BENCHMARK.json, whose workloads must run without
    failures; ``run.py --all`` runs it so that the defects show.
    """
    proof = prove_tautology(inputs.clause(rng, 3, "lit", ["nimp", "or", "imp"]))
    lines = proof.lines
    n = len(lines)
    schedule = []

    # DEF OR UNFOLD on a line whose predecessor is a disjunction: documented
    # as a DefMismatch rejection, raises ValueError today.
    k = next(ln.index for ln in lines[1:] if isinstance(lines[ln.index - 2].formula, Bin)
             and lines[ln.index - 2].formula.op is Operator.OR)
    bad = list(lines)
    bad[k - 1] = ProofLine(k, bad[k - 1].formula, DefJust(Operator.OR, (), Direction.UNFOLD))
    path = workdir / "def-or-unfold.prf"
    _write(path, Proof(proof.goal, bad), False)
    schedule.append(_verify_op("malformed:def-or", path, n, 4, _rejected(k, "DefMismatch")))

    # An AX1 instance carrying an unused metavariable: must be rejected.
    k = next(ln.index for ln in lines if isinstance(ln.just, AxiomJust) and ln.just.schema == 1)
    bad = list(lines)
    extra = tuple(sorted(bad[k - 1].just.subst + (("Z", Atom("q")),)))
    bad[k - 1] = ProofLine(k, bad[k - 1].formula, AxiomJust(1, extra))
    path = workdir / "ax-extra-var.prf"
    _write(path, Proof(proof.goal, bad), False)
    schedule.append(_verify_op("malformed:ax-extra", path, n, 4, _rejected(k, "NotAnAxiomInstance")))

    # JSON with a missing key, and with a string line index: parse errors.
    data = proof_to_dict(proof)
    missing = json.loads(json.dumps(data))
    del missing["lines"][rng.randrange(n)][rng.choice(["formula", "just", "index"])]
    path = workdir / "missing-key.json"
    path.write_text(json.dumps(missing), encoding="utf-8")
    schedule.append(_verify_op("malformed:missing-key", path, n, 2, ""))
    stringly = json.loads(json.dumps(data))
    stringly["lines"][0]["index"] = "1"
    path = workdir / "string-index.json"
    path.write_text(json.dumps(stringly), encoding="utf-8")
    schedule.append(_verify_op("malformed:string-index", path, n, 2, ""))

    # Deep but valid one-line proofs: 3,000 negations, 1,200 parentheses.
    for name, a in (("deep-not", "!" * 3000 + "p"), ("deep-parens", "(" * 1200 + "p" + ")" * 1200)):
        path = workdir / f"{name}.prf"
        path.write_text(f"1. ({a} imp ({a} or q)) ; AX2 [A:={a}, B:=q]\n", encoding="utf-8")
        schedule.append(_verify_op(f"malformed:{name}", path, 1, 0, _accepted(1)))
    return Workload("verify-malformed", "lines", schedule, [])


# --- semantics ---------------------------------------------------------------


def _row_text(row: dict) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in row.items()) + "}"


def _check_op(key: str, f, as_json: bool) -> Op:
    verdict, true_at, false_at, scanned = oracle.classify(f)
    text = oracle.render(f)
    argv = ["check", text] + (["--json"] if as_json else [])

    def check(output) -> int:
        rc, out, err = output
        _exit(rc, 0)
        if as_json:
            want = {"formula": text, "verdict": verdict}
            if true_at is not None:
                want.update(true_at=true_at, false_at=false_at)
            if json.loads(out) != want:
                raise Mismatch(f"check --json gave {out[:200]!r}")
        else:
            want = verdict + "\n"
            if true_at is not None:
                want += f"  true at: {_row_text(true_at)}\n  false at: {_row_text(false_at)}\n"
            if out != want:
                raise Mismatch(f"check gave {out[:200]!r}, expected {want[:200]!r}")
        return scanned

    return Op(key, "check", lambda: cli(argv), _once(check))


def _relate_op(key: str, a, b, as_json: bool) -> Op:
    par, perp, scanned = oracle.relate(a, b)
    # a is always fundamental-only and b negated-only, so relate warns of nothing
    argv = ["relate", oracle.render(a), oracle.render(b)] + (["--json"] if as_json else [])

    def check(output) -> int:
        rc, out, err = output
        _exit(rc, 0)
        if err:
            raise Mismatch(f"unexpected warning {err!r}")
        if as_json:
            want = {"parallel": par is None, "perpendicular": perp is None}
            if par is not None:
                want["parallel_witness"] = par
            if perp is not None:
                want["perpendicular_witness"] = perp
            if json.loads(out) != want:
                raise Mismatch(f"relate --json gave {out[:200]!r}")
        else:
            want = f"parallel: {str(par is None).lower()}\n"
            if par is not None:
                want += f"  differs at {par}\n"
            want += f"perpendicular: {str(perp is None).lower()}\n"
            if perp is not None:
                want += f"  fails at {perp}\n"
            if out != want:
                raise Mismatch(f"relate gave {out[:200]!r}, expected {want[:200]!r}")
        return scanned

    return Op(key, "relate", lambda: cli(argv), _once(check))


def _table_op(key: str, f, as_json: bool) -> Op:
    text = oracle.render(f)
    argv = ["table", text] + (["--json"] if as_json else [])
    names = oracle.atom_order(f)
    cols = oracle.Columns(names)
    paths = oracle.column_paths(f)
    want = [cols.bits(cols.value(node)) for _, node in paths]
    want_rows = ["".join(r) for r in zip(*(cols.bits(cols.atoms[name]) for name in names))]
    final = next(i for i, (p, _) in enumerate(paths) if p == "")

    def check(output) -> int:
        rc, out, err = output
        _exit(rc, 0)
        if as_json:
            data = json.loads(out)
            rows = ["".join(str(r[name]) for name in names) for r in data["rows"]]
            got = ["".join(map(str, c["values"])) for c in data["columns"]]
            ok = (
                data["formula"] == text
                and data["atoms"] == names
                and [c["path"] for c in data["columns"]] == [p for p, _ in paths]
                and data["final_index"] == final
                and "".join(map(str, data["final"])) == want[final]
            )
        else:
            lines = out.splitlines()
            head_atoms, _, head_labels = lines[0].partition(" | ")
            labels = head_labels.split()
            body = [ln.split(" | ") for ln in lines[2 : 2 + cols.rows]]
            rows = [b.replace(" ", "") for b, _ in body]
            got = ["".join(c) for c in zip(*(cells.split() for _, cells in body))]
            ok = (
                head_atoms.split() == names
                and len(labels) == len(paths)
                and [i for i, s in enumerate(labels) if s.startswith("[")] == [final]
                and lines[2 + cols.rows :] == ["[...] marks the final analysis column"]
            )
        if not ok or got != want or rows != want_rows:
            raise Mismatch(f"table {'--json ' if as_json else ''}differs from the oracle")
        return cols.rows

    return Op(key, "table-json" if as_json else "table", lambda: cli(argv), _once(check))


def build_semantics_sweep(rng: random.Random, workdir: Path, small: bool) -> Workload:
    """check, table, table --json and relate on answers that need every row.

    Inputs are the paper's A/B regrouping pairs generalised to n-atom
    chains: A is a tautology, B a contradiction, (A, B) perpendicular and
    (A, !B) parallel, so a row-by-row loop cannot stop early.  Atom counts
    are fixed per slot (10 to 16; tables stop at 13, where the text output
    is already 2.5 MB) so that every seed does the same amount of work.
    """
    # Five cheap, five middling and five dear operations: the median
    # latency falls among the middling ones, which cost about the same.
    slots = [
        ("check", 10), ("table", 10), ("json", 10), ("relate", 11),
        ("check", 12), ("table", 11), ("json", 11), ("relate", 13),
        ("check", 14), ("table", 12), ("json", 12), ("relate", 15),
        ("check", 14), ("table", 13), ("check", 16),
    ]
    if small:
        slots = [("check", 4), ("table", 3), ("json", 3), ("relate", 4)]
    schedule = []
    for i, (kind, n) in enumerate(slots):
        a, b = inputs.regrouping(rng, n)
        key = f"sweep:{i}:{kind}{n}"
        if kind == "relate":
            schedule.append(_relate_op(key, a, b if rng.random() < 0.5 else Not(b), rng.random() < 0.5))
        elif kind == "check":
            schedule.append(_check_op(key, a if rng.random() < 0.5 else b, rng.random() < 0.5))
        else:
            schedule.append(_table_op(key, a if rng.random() < 0.5 else b, kind == "json"))
    a, _ = inputs.regrouping(rng, 6)
    return Workload("semantics-sweep", "rows", schedule, [_check_op("sweep:warm", a, False)])


def build_semantics_witness(rng: random.Random, workdir: Path, small: bool) -> Workload:
    """check and relate where a witness row ends the scan early.

    check gets a formula true (or false) on exactly one row; relate gets an
    and/or/imp formula and a nor/nand/nimp formula, each pinned to one row,
    so both relations fail.  The witness rows come from a stratified,
    seeded spread, most among the first rows, on 10 to 20 atoms.  This is
    the case a whole-column kernel could make slower.
    """
    count = 22 if small else 220
    # Atom count and command follow the witness row's rank, so that every
    # seed pairs the late witnesses with the same atom counts.
    rows = sorted(inputs.witness_rows(rng, count, 16 if small else 1024))
    schedule = []
    for i, row in enumerate(rows):
        n = (4 + i % 3) if small else 10 + i % 11
        ns = inputs.names(rng, n)
        as_json = rng.random() < 0.5
        if i % 2 == 0:
            # true on every row but one, or on one row only
            eq = inputs.row_equality(rng, ns, row, inputs.AND_SPELLINGS)
            f = Not(eq) if rng.random() < 0.5 else eq
            schedule.append(_check_op(f"witness:{i}:check", f, as_json))
        else:
            # a is false only on `row`; b is false (or true) only on a later
            # row, so the parallel (or perpendicular) witness is `row`
            a = Not(inputs.row_equality(rng, ns, row, inputs.FO_SPELLINGS))
            later = (row + 1 + rng.randrange(4)) % (1 << n)
            b = inputs.row_equality(rng, ns, later, inputs.NFO_SPELLINGS)
            b = Not(b) if rng.random() < 0.5 else b
            schedule.append(_relate_op(f"witness:{i}:relate", a, b, as_json))
    rng.shuffle(schedule)
    return Workload("semantics-witness", "rows", schedule, schedule[:8])


BUILDERS = {
    "prove": build_prove,
    "verify": build_verify,
    "semantics-sweep": build_semantics_sweep,
    "semantics-witness": build_semantics_witness,
    "verify-malformed": build_verify_malformed,
}


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir, small)
