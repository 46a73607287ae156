"""Command line interface.

Commands: parse, table, check, relate, transform, prove, verify.
Formulas are given inline in either dialect, or as ``@path`` to read a
file.  Exit codes: 0 success, 2 parse, usage or file error, 3 any other
failed precondition or out of memory, 4 proof rejection, 141 closed
output pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path as FsPath

from .errors import LogicError, ParseError
from .formula import Formula, Language, language_of, atoms_of, path_to_str, subformulas
from .parser import Dialect, parse, render
# assignments, evaluate, is_parallel, is_perpendicular and truth_table stay
# bound for perfbench/spans.py, which wraps them
from .semantics import (  # noqa: F401
    TableScan,
    assignments,
    evaluate,
    first_rows,
    is_parallel,
    is_perpendicular,
    relate,
    table_blocks,
    table_labels,
    truth_table,
)
from .transforms import (
    desugar,
    psi_apply,
    psi_invert,
    upsilon_decrypt,
    upsilon_encrypt,
)
from .proof import check_proof, load_proof, proof_to_json, proof_to_text
from .proof.io import to_json, trace_from_json, trace_to_dict
from .proof.prover import prove_main_results, prove_tautology

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_REJECTED = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, the shell's status for a closed pipe


def _read_text(path: str) -> str:
    try:
        # a leading byte order mark is skipped, after decoding so offsets count it
        return FsPath(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_formula_arg(text: str) -> Formula:
    if text.startswith("@"):
        text = _read_text(text[1:])
    return parse(text)


def _dialect(args) -> Dialect:
    return Dialect.UNICODE if args.unicode else Dialect.ASCII


def _emit_json(payload: dict) -> None:
    sys.stdout.write(to_json(payload) + "\n")


def cmd_parse(args) -> int:
    f = _read_formula_arg(args.formula)
    if args.json:
        _emit_json(
            {
                "formula": render(f, _dialect(args)),
                "language": language_of(f).value,
                "atoms": atoms_of(f),
            }
        )
    else:
        print(render(f, _dialect(args)))
    return EXIT_OK


# Stands for one digit in a row template; no other text of a row holds it.
_MARK = "\0"


def _stamp(template: str, digits: list[str]) -> str:
    """``template`` once per row: in row ``i`` its ``k``-th mark becomes
    digit ``i`` of ``digits[k]``.  The template is ASCII; each mark is set
    in every row at once by one strided slice assignment."""
    line = template.encode()
    rows = bytearray(line) * len(digits[0])
    at = -1
    for bits in digits:
        at = line.index(_MARK.encode(), at + 1)
        rows[at :: len(line)] = bits.encode()
    return rows.decode()


def _write_table_json(formula: str, scan: TableScan, labels: list[str]) -> None:
    """Write the table as ``json.dumps(payload, indent=2)`` and a newline
    would, the rows a block at a time.  The columns come after the rows,
    so their digits are kept, one string per block per column (one byte
    per cell), and each value list is written a block at a time too."""
    write, dumps = sys.stdout.write, json.dumps
    atoms = ",".join(f"\n    {dumps(name)}" for name in scan.atom_order)
    write(f'{{\n  "formula": {dumps(formula)},\n  "atoms": [{atoms}\n  ],\n  "rows": [')
    cells = ",".join(f"\n      {dumps(name)}: {_MARK}" for name in scan.atom_order)
    row = f",\n    {{{cells}\n    }}"
    kept: list[list[str]] = [[] for _ in scan.paths]
    comma = 1  # the first row has no comma before it
    for atom_digits, column_digits in scan.blocks:
        write(_stamp(row, atom_digits)[comma:])
        comma = 0
        for column, bits in zip(kept, column_digits):
            column.append(bits)

    def write_values(column: list[str], indent: str) -> None:
        item, comma = f",\n{indent}{_MARK}", 1  # the first value has no comma before it
        for bits in column:
            write(_stamp(item, [bits])[comma:])
            comma = 0

    write('\n  ],\n  "columns": [')
    for i, (path, label, column) in enumerate(zip(scan.paths, labels, kept)):
        write(",\n    {" if i else "\n    {")
        write(f'\n      "path": {dumps(path_to_str(path))},\n      "label": {dumps(label)},')
        write('\n      "values": [')
        write_values(column, " " * 8)
        write("\n      ]\n    }")
    write(f'\n  ],\n  "final_index": {scan.final_index},\n  "final": [')
    write_values(kept[scan.final_index], " " * 4)
    write("\n  ]\n}\n")


def cmd_table(args) -> int:
    f = _read_formula_arg(args.formula)
    scan = table_blocks(f)
    labels = table_labels(f, _dialect(args))
    if args.json:
        _write_table_json(render(f, _dialect(args)), scan, labels)
        return EXIT_OK
    labels = [
        f"[{label}]" if i == scan.final_index else label
        for i, label in enumerate(labels)
    ]
    header = " ".join(scan.atom_order) + " | " + "  ".join(labels)
    row = (
        " ".join(_MARK * len(scan.atom_order))
        + " | "
        + "  ".join(_MARK.center(len(label)) for label in labels)
        + "\n"
    )
    sys.stdout.write(f"{header}\n{'-' * len(header)}\n")
    for atom_digits, column_digits in scan.blocks:
        sys.stdout.write(_stamp(row, atom_digits + column_digits))
    sys.stdout.write("[...] marks the final analysis column\n")
    return EXIT_OK


def cmd_check(args) -> int:
    f = _read_formula_arg(args.formula)
    rows = dict(first_rows(f))
    witnesses = {"true_at": rows[1], "false_at": rows[0]} if len(rows) == 2 else {}
    verdict = "CONTINGENT" if witnesses else "TAUTOLOGY" if 1 in rows else "CONTRADICTION"
    if args.json:
        _emit_json({"formula": render(f, _dialect(args)), "verdict": verdict, **witnesses})
    else:
        print(verdict)
        for key, row in witnesses.items():
            pretty = ", ".join(f"{k}={v}" for k, v in row.items())
            print(f"  {key.replace('_', ' ')}: {{{pretty}}}")
    return EXIT_OK


def cmd_relate(args) -> int:
    a = _read_formula_arg(args.a)
    b = _read_formula_arg(args.b)
    na, nb = subformulas(a), subformulas(b)
    lang_a, lang_b = language_of(a, na), language_of(b, nb)
    if lang_a is not Language.FO_ONLY or lang_b is not Language.NFO_ONLY:
        print(
            "warning: relations are usually taken between a fundamental-only "
            "left side and a negated-only right side; classes here are "
            f"{lang_a.value} / {lang_b.value}",
            file=sys.stderr,
        )
    par, perp = relate(a, b, na, nb)
    payload: dict = {"parallel": par.holds, "perpendicular": perp.holds}
    if par.witness is not None:
        payload["parallel_witness"] = par.witness
    if perp.witness is not None:
        payload["perpendicular_witness"] = perp.witness
    if args.json:
        _emit_json(payload)
    else:
        print(f"parallel: {str(par.holds).lower()}")
        if par.witness is not None:
            print(f"  differs at {par.witness}")
        print(f"perpendicular: {str(perp.holds).lower()}")
        if perp.witness is not None:
            print(f"  fails at {perp.witness}")
    return EXIT_OK


def cmd_transform(args) -> int:
    f = _read_formula_arg(args.formula)
    trace_out = None
    if args.rule == "upsilon":
        result, trace = upsilon_encrypt(f)
        trace_out = trace_to_dict(trace)
        if args.trace:
            FsPath(args.trace).write_text(to_json(trace_out) + "\n", encoding="utf-8")
    elif args.rule == "upsilon-inv":
        result = upsilon_decrypt(f, trace_from_json(_read_text(args.trace)))
    elif args.rule == "psi":
        result = psi_apply(f)
    elif args.rule == "psi-inv":
        result = psi_invert(f)
    else:
        result = desugar(f)
    if args.json:
        payload = {"rule": args.rule, "formula": render(result, _dialect(args))}
        if trace_out is not None:
            payload["trace"] = trace_out
        _emit_json(payload)
    else:
        print(render(result, _dialect(args)))
    return EXIT_OK


def cmd_prove(args) -> int:
    serialize = proof_to_json if args.json else proof_to_text
    suffix = ".json" if args.json else ".prf"
    if args.main_results:
        outdir = FsPath(args.dir or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        for tag, proof in zip("abcd", prove_main_results()):
            target = outdir / f"main-{tag}{suffix}"
            target.write_text(serialize(proof), encoding="utf-8")
            print(f"{target}: {len(proof.lines)} lines")
        return EXIT_OK
    f = _read_formula_arg(args.formula)
    proof = prove_tautology(f)
    text = serialize(proof)
    if args.out:
        FsPath(args.out).write_text(text, encoding="utf-8")
        print(f"{args.out}: {len(proof.lines)} lines")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    proof = load_proof(_read_text(args.proof_file))
    result = check_proof(proof)
    if args.json:
        _emit_json({**asdict(result), "lines": len(proof.lines)})
    elif result.accepted:
        print(f"accepted ({len(proof.lines)} lines)")
    else:
        print(f"rejected at line {result.line}: {result.reason} ({result.detail})")
    return EXIT_OK if result.accepted else EXIT_REJECTED


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plogic",
        description="propositional logic: tables, relations, rewrites, proofs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, renders: bool = True) -> None:
        p.add_argument("--json", action="store_true", help="machine output")
        if renders:  # only a command that prints a formula takes --unicode
            p.add_argument(
                "--unicode", action="store_true", help="render with unicode glyphs"
            )

    p = sub.add_parser("parse", help="validate a formula and echo canonical form")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("table", help="print the truth table")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("check", help="classify tautology/contradiction/contingent")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("relate", help="test the parallel and perpendicular relations")
    p.add_argument("a")
    p.add_argument("b")
    common(p, renders=False)

    p = sub.add_parser("transform", help="apply a rewriting rule")
    p.add_argument(
        "rule", choices=["upsilon", "upsilon-inv", "psi", "psi-inv", "desugar"]
    )
    p.add_argument("formula")
    p.add_argument("--trace", "-t", help="trace file (written by upsilon, read by upsilon-inv)")
    common(p)

    p = sub.add_parser("prove", help="generate a checkable proof of a tautology")
    p.add_argument("formula", nargs="?")
    p.add_argument("--out", "-o", help="write the proof here instead of stdout")
    p.add_argument("--dir", "-d", help="output directory for --main-results")
    p.add_argument(
        "--main-results",
        action="store_true",
        help="emit proofs of the four regrouping biconditionals",
    )
    common(p, renders=False)

    p = sub.add_parser("verify", help="check a proof file")
    p.add_argument("proof_file")
    common(p, renders=False)

    return top


# Built on the first call of main and kept: parse_args leaves the parser as
# it was, so the calls of one process stay independent.
_arg_parser = cache(build_arg_parser)


def main(argv: list[str] | None = None) -> int:
    top = _arg_parser()
    args = top.parse_args(argv)
    if args.command == "transform" and args.rule == "upsilon-inv" and not args.trace:
        top.error("upsilon-inv requires --trace")
    if args.command == "transform" and args.trace and not args.rule.startswith("upsilon"):
        top.error(f"{args.rule} takes no --trace")
    if args.command == "prove" and not args.main_results and not args.formula:
        top.error("prove needs a formula or --main-results")
    if args.command == "prove" and args.main_results and (args.formula or args.out):
        top.error("prove --main-results takes no formula and no --out")
    if args.command == "prove" and args.dir and not args.main_results:
        top.error("prove --dir needs --main-results")
    try:
        # looked up at the call, so that a rebound cmd_<command> is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LogicError as exc:  # any other failed precondition
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except BrokenPipeError:
        raise  # not an error of the input: the entry point handles it
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_SEMANTIC


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone, as `head` does: exit quietly
        # with stdout on devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
