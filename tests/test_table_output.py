"""`plogic table` and `table --json` write their rows a block at a time
from the kernel's column digits; `--json` keeps those digits, one string
per block per column, and writes each column's value list a block at a
time too.  Their bytes must stay those of the plain formatters kept here:
a loop over the rows and cells of `truth_table`, and one
`json.dumps(payload, indent=2)` of the whole table."""

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


# Runs the CLI with the arguments given and prints its peak resident set
# in kB.  The CLI is a child of this small process, not of pytest: a forked
# child starts from its parent's peak, which would hide its own.
_PEAK_OF_CLI = (
    "import resource, subprocess, sys\n"
    "cli = [sys.executable, '-m', 'plogic.cli', *sys.argv[1:]]\n"
    "subprocess.run(cli, stdout=subprocess.DEVNULL, check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


@pytest.mark.slow
def test_the_json_writer_keeps_little_beyond_the_column_digits():
    """`table --json` must keep each column's digits until the rows are
    written, one byte per cell; what it holds on top of that, writing the
    value lists, stays well under those digits."""
    f = chain([f"a{i}" for i in range(20)])
    kept_kb = len(table_labels(f)) * 2**20 // 1024  # 39 columns of 2^20 cells
    peaks = []
    for flags in [[], ["--json"]]:
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_OF_CLI, "table", *flags, render(f, Dialect.ASCII)],
            capture_output=True,
            preexec_fn=_limit_address_space,  # the CLI inherits the limit
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        peaks.append(int(result.stdout))
    text_kb, json_kb = peaks
    assert json_kb - text_kb <= 1.5 * kept_kb, (text_kb, json_kb, kept_kb)
