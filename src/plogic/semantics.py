"""Truth-table semantics: evaluation, tables, and the two semantic relations.

Tables follow the classic printed layout: rows run from the all-ones
assignment down to all-zeros, and there is one column per atom occurrence
and per binary-connective occurrence, read left to right.  A negation
(or a chain of negations) sitting directly on an atom or on a
parenthesized binary formula does not get a column of its own; its value
is shown in the column of the symbol it guards.  The root column is the
final analysis.

Every semantic question, ``check``'s two witnesses and ``relate``'s two
relations included, is answered by one scan over the table, a block of
rows at a time, with each column of a block held as one int.  A block's
columns are filled by one pass over the formula's distinct subformulas,
children first.  ``table_blocks`` hands a table out block by block, each
column of a block as a string of ``0``/``1`` digits in row order, so a
caller can write a table of any size in bounded memory; ``truth_table``
collects those blocks into one row dict and one int per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import MissingAtom, TooManyAtoms
from .formula import (
    Atom,
    Bin,
    Formula,
    Not,
    Operator,
    Path,
    Step,
    atoms_of,
    subformulas,
)
from .parser import Dialect, render

Assignment = dict[str, int]

ATOM_LIMIT = 24

# Rows per block of the scan, as a power of two.
_BLOCK_BITS = 12

# Maps the digits of a column written in binary to bit values.
_DIGITS = bytes.maketrans(b"01", b"\0\1")

# Operator values over inputs (1,1), (1,0), (0,1), (0,0).
TRUTH: dict[Operator, tuple[int, int, int, int]] = {
    Operator.OR: (1, 1, 1, 0),
    Operator.AND: (1, 0, 0, 0),
    Operator.IMP: (1, 0, 1, 1),
    Operator.IFF: (1, 0, 0, 1),
    Operator.NOR: (0, 0, 0, 1),
    Operator.NAND: (0, 1, 1, 1),
    Operator.NIMP: (0, 1, 0, 0),
    Operator.XOR: (0, 1, 1, 0),
    Operator.UPDOWN: (1, 0, 0, 1),
}


def op_value(op: Operator, x: int, y: int) -> int:
    return TRUTH[op][(1 - x) * 2 + (1 - y)]


def _apply(op: Operator, x: int, y: int, full: int) -> int:
    """``op`` on two columns: the union of the input cases it maps to 1."""
    t11, t10, t01, t00 = TRUTH[op]
    nx, ny = full ^ x, full ^ y
    return (t11 and x & y) | (t10 and x & ny) | (t01 and nx & y) | (t00 and nx & ny)


def _fill_columns(nodes: list[Formula], a: Assignment, full: int) -> dict[Formula, int]:
    """The column of every node of ``nodes`` (an order from ``subformulas``)
    over one block of rows; an atom ``a`` does not cover raises MissingAtom,
    the leftmost one first."""
    col: dict[Formula, int] = {}
    for node in nodes:
        if isinstance(node, Bin):
            col[node] = _apply(node.op, col[node.left], col[node.right], full)
        elif isinstance(node, Not):
            col[node] = full ^ col[node.child]
        else:
            try:
                col[node] = a[node.name]
            except KeyError:
                raise MissingAtom(node.name) from None
    return col


def evaluate(f: Formula, a: Assignment) -> int:
    """The value, 0 or 1, of ``f`` under the assignment ``a``."""
    return _fill_columns(subformulas(f), a, 1)[f]


def _row(atoms: list[str], i: int) -> Assignment:
    """Row ``i`` in table order; the first atom is the slowest to change."""
    n = len(atoms)
    return {name: (~i >> (n - 1 - j)) & 1 for j, name in enumerate(atoms)}


def assignments(atoms: list[str]) -> Iterator[Assignment]:
    """All assignments in table order: all-ones first, all-zeros last."""
    return (_row(atoms, i) for i in range(1 << len(atoms)))


def _blocks(atoms: list[str]) -> Iterator[tuple[int, Assignment, int]]:
    """The table's rows in order, as blocks of (first row, atom columns, full).

    Bit ``k`` of a column is row ``first + k``.  The last atoms change
    within a block and take fixed masks; the others are constant in it.
    Too many atoms raise TooManyAtoms here, not at the first block.
    """
    if len(atoms) > ATOM_LIMIT:
        raise TooManyAtoms(len(atoms), ATOM_LIMIT)
    low = min(len(atoms), _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    shifts = list(enumerate(reversed(atoms)))
    # the column of shift s: 2**s ones, then 2**s zeros, repeated
    masks = {name: full // ((1 << (1 << s)) + 1) for s, name in shifts[:low]}

    def block(start: int) -> tuple[int, Assignment, int]:
        high = {name: full * ((~start >> s) & 1) for s, name in shifts[low:]}
        return start, {**masks, **high}, full

    return map(block, range(0, 1 << len(atoms), 1 << low))


def first_rows(f: Formula) -> Iterator[tuple[int, Assignment]]:
    """(value, first row where ``f`` takes it) for each value ``f`` takes, in
    table order, from one scan that stops once it has seen both values."""
    nodes = subformulas(f)
    atoms = [node.name for node in nodes if isinstance(node, Atom)]  # atoms_of, one walk
    blocks = _blocks(atoms)  # too many atoms raise here, at the call

    def scan() -> Iterator[tuple[int, Assignment]]:
        for start, cols, full in blocks:
            ones = _fill_columns(nodes, cols, full)[f]
            if start == 0:  # the value at row 0 is the first one seen
                seen = ones & 1
                yield seen, _row(atoms, 0)
            if hits := ones ^ (full if seen else 0):
                yield 1 - seen, _row(atoms, start + (hits & -hits).bit_length() - 1)
                return

    return scan()


def first_row(f: Formula, value: int) -> Optional[Assignment]:
    """The first row in table order where ``f`` takes ``value``, or None."""
    return next((row for v, row in first_rows(f) if v == value), None)


@dataclass
class Column:
    path: Path
    values: list[int]


@dataclass
class TruthTable:
    atom_order: list[str]
    rows: list[Assignment]
    columns: list[Column]
    final_index: int


def _columns(f: Formula) -> Iterator[tuple[Path, Formula]]:
    """The table's columns in reading order, as (path, node).

    One column per atom and per binary connective; a run of negations
    directly above a node is folded into that node's column, so its path
    and node are those of the outermost negation of the run.
    """
    # (path, node, False) reads the occurrence at path; (path, node, True)
    # is the column of a connective whose left operand has been read
    todo = [((), f, False)]
    while todo:
        top, node, read = todo.pop()
        path, sub = top, node
        while isinstance(sub, Not):
            path += (Step.CHILD,)
            sub = sub.child
        if isinstance(sub, Bin) and not read:
            todo += (
                (path + (Step.RIGHT,), sub.right, False),
                (top, node, True),
                (path + (Step.LEFT,), sub.left, False),
            )
        else:
            yield top, node


def table_labels(f: Formula, dialect: Dialect = Dialect.UNICODE) -> list[str]:
    """Header cells aligned with the table columns: the canonical text cut
    at its spaces, which ``render`` puts only around binary connectives.

    So a cell is one atom or connective, negations and opening parentheses
    attached to the cell that follows them, closing parentheses to the cell
    before.  The outermost parenthesis pair is left off, as in print.
    """
    text = render(f, dialect)
    return (text[1:-1] if isinstance(f, Bin) else text).split(" ")


@dataclass
class TableScan:
    """A truth table's header, and its rows as an iterator of blocks.

    Each block is a pair (atom digits, column digits): one string of
    ``0``/``1`` per atom of ``atom_order`` and per column of ``paths``,
    with one digit per row of the block, in table order.
    """

    atom_order: list[str]
    paths: list[Path]
    final_index: int
    blocks: Iterator[tuple[list[str], list[str]]]


def table_blocks(f: Formula) -> TableScan:
    """The table of ``f`` a block of rows at a time; too many atoms raise
    TooManyAtoms at the call, before any block is made."""
    atoms = atoms_of(f)
    nodes = subformulas(f)
    header = list(_columns(f))
    paths = [path for path, _ in header]

    def digits(blocks: Iterator[tuple[int, Assignment, int]]):
        for _, cols, full in blocks:
            # row k is bit k: the k-th binary digit from the right
            spec = f"0{full.bit_length()}b"
            values = _fill_columns(nodes, cols, full)
            yield (
                [format(cols[name], spec)[::-1] for name in atoms],
                [format(values[node], spec)[::-1] for _, node in header],
            )

    return TableScan(atoms, paths, paths.index(()), digits(_blocks(atoms)))


def truth_table(f: Formula) -> TruthTable:
    """The whole table of ``f``, one dict per row and one int per cell;
    ``table_blocks`` gives the same table in bounded memory."""
    scan = table_blocks(f)
    columns = [Column(path, []) for path in scan.paths]
    for _, block in scan.blocks:
        for col, bits in zip(columns, block):
            col.values += bits.encode().translate(_DIGITS)
    atoms = scan.atom_order
    return TruthTable(atoms, list(assignments(atoms)), columns, scan.final_index)


def is_tautology(f: Formula) -> bool:
    return first_row(f, 0) is None


def is_contradiction(f: Formula) -> bool:
    return first_row(f, 1) is None


@dataclass
class RelationVerdict:
    holds: bool
    witness: Optional[Assignment] = None


def is_parallel(a: Formula, b: Formula) -> RelationVerdict:
    """Do the final analyses of ``a`` and ``b`` agree on every row?

    Evaluated over the union of both atom sets; the witness is the first
    disagreeing row in table order.
    """
    witness = first_row(Bin(Operator.XOR, a, b), 1)
    return RelationVerdict(witness is None, witness)


def is_perpendicular(a: Formula, b: Formula) -> RelationVerdict:
    """Is the final analysis of ``b`` the bitwise complement of ``a``'s?"""
    witness = first_row(Bin(Operator.XOR, a, b), 0)
    return RelationVerdict(witness is None, witness)


def relate(a: Formula, b: Formula) -> tuple[RelationVerdict, RelationVerdict]:
    """(is_parallel(a, b), is_perpendicular(a, b)) from one scan of a xor b."""
    rows = dict(first_rows(Bin(Operator.XOR, a, b)))
    par, perp = rows.get(1), rows.get(0)
    return RelationVerdict(par is None, par), RelationVerdict(perp is None, perp)
