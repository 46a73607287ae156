"""`plogic table` and `table --json` write their rows a block at a time
from the kernel's column digits.  Their bytes must stay those of the plain
formatters kept here: a loop over the rows and cells of `truth_table`, and
one `json.dumps(payload, indent=2)` of the whole table."""

import json
import random
import resource
import subprocess
import sys

import pytest

from plogic import Atom, Bin, Dialect, Operator, path_to_str, render, table_labels, truth_table
from plogic.cli import main as cli_main

from oracle import random_formula


def reference_text(f, dialect) -> str:
    table = truth_table(f)
    labels = [
        f"[{label}]" if i == table.final_index else label
        for i, label in enumerate(table_labels(f, dialect))
    ]
    widths = [len(label) for label in labels]
    header = " ".join(table.atom_order) + " | " + "  ".join(labels)
    lines = [header, "-" * len(header)]
    for i, row in enumerate(table.rows):
        bits = " ".join(str(row[a]) for a in table.atom_order)
        cells = "  ".join(
            str(col.values[i]).center(w) for col, w in zip(table.columns, widths)
        )
        lines.append(bits + " | " + cells)
    lines.append("[...] marks the final analysis column")
    return "\n".join(lines) + "\n"


def reference_json(f, dialect) -> str:
    table = truth_table(f)
    payload = {
        "formula": render(f, dialect),
        "atoms": table.atom_order,
        "rows": table.rows,
        "columns": [
            {"path": path_to_str(col.path), "label": label, "values": col.values}
            for col, label in zip(table.columns, table_labels(f, dialect))
        ],
        "final_index": table.final_index,
        "final": table.columns[table.final_index].values,
    }
    return json.dumps(payload, indent=2) + "\n"


def chain(names, op=Operator.NOR):
    f = Atom(names[0])
    for name in names[1:]:
        f = Bin(op, f, Atom(name))
    return f


def _random_formulas():
    rng = random.Random(20240817)
    for n in range(1, 7):
        names = [f"p{i}" for i in range(n)]
        for _ in range(3):
            yield random_formula(rng, names, 5)


FORMULAS = [
    *_random_formulas(),
    # labels of width 1 to 5: "q", "or", "nor", "[or]", "[nor]", "!(p1", "p22)"
    Bin(Operator.OR, Bin(Operator.NOR, Atom("p1"), Atom("q")), Atom("p22")),
    Bin(Operator.NOR, Atom("q"), Bin(Operator.OR, Atom("p1"), Atom("r"))),
    chain([f"a{i}" for i in range(13)], Operator.XOR),  # 8,192 rows: two blocks
]


@pytest.mark.parametrize("dialect", list(Dialect), ids=lambda d: d.name)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("f", FORMULAS, ids=lambda f: render(f, Dialect.ASCII)[:40])
def test_table_bytes_match_the_plain_formatters(capsys, f, as_json, dialect):
    flags = (["--json"] if as_json else []) + (["--unicode"] if dialect is Dialect.UNICODE else [])
    assert cli_main(["table", *flags, render(f, Dialect.ASCII)]) == 0
    out, err = capsys.readouterr()
    reference = reference_json if as_json else reference_text
    assert (out, err) == (reference(f, dialect), "")


def test_the_formulas_cover_odd_and_even_label_widths():
    widths = {
        len(label)
        for f in FORMULAS
        for dialect in Dialect
        for label in table_labels(f, dialect)
    }
    assert {1, 2, 3, 4} <= widths


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "plogic.cli", *argv], timeout=300, **kwargs
    )


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_too_many_atoms_write_nothing_to_stdout(flags):
    f = render(chain([f"a{i}" for i in range(25)]), Dialect.ASCII)
    result = run_cli("table", *flags, f, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "error: 25 atoms exceeds the limit of 24\n"


def _limit_address_space():
    limit = 1_000_000 * 1024  # 1,000,000 kB, as `ulimit -v 1000000`
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.slow
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_20_atom_table_fits_in_bounded_memory(flags):
    f = render(chain([f"a{i}" for i in range(20)]), Dialect.ASCII)
    result = run_cli(
        "table",
        *flags,
        f,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=_limit_address_space,
    )
    assert (result.returncode, result.stderr) == (0, b"")
