"""Truth-table semantics: evaluation, tables, and the two semantic relations.

Tables follow the classic printed layout: rows run from the all-ones
assignment down to all-zeros, and there is one column per atom occurrence
and per binary-connective occurrence, read left to right.  A negation
(or a chain of negations) sitting directly on an atom or on a
parenthesized binary formula does not get a column of its own; its value
is shown in the column of the symbol it guards.  The root column is the
final analysis.

Every semantic question is answered by one scan over the table, a block
of rows at a time, with each column of a block held as one int.
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
    subformula_at,
)
from .parser import Dialect, negation_symbol, operator_symbol

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


def evaluate(f: Formula, a: Assignment, full: int = 1) -> int:
    """Column of ``f`` over a block of rows, one bit per row.

    ``a`` maps each atom to its column and ``full`` has a bit for every
    row; a plain assignment is a one-row block.
    """
    if isinstance(f, Atom):
        try:
            return a[f.name]
        except KeyError:
            raise MissingAtom(f.name) from None
    if isinstance(f, Not):
        return full ^ evaluate(f.child, a, full)
    return _apply(f.op, evaluate(f.left, a, full), evaluate(f.right, a, full), full)


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
    """
    if len(atoms) > ATOM_LIMIT:
        raise TooManyAtoms(len(atoms), ATOM_LIMIT)
    low = min(len(atoms), _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    shifts = list(enumerate(reversed(atoms)))
    # the column of shift s: 2**s ones, then 2**s zeros, repeated
    masks = {name: full // ((1 << (1 << s)) + 1) for s, name in shifts[:low]}
    for start in range(0, 1 << len(atoms), 1 << low):
        high = {name: full * ((~start >> s) & 1) for s, name in shifts[low:]}
        yield start, {**masks, **high}, full


def first_row(f: Formula, value: int) -> Optional[Assignment]:
    """The first row in table order where ``f`` takes ``value``, or None."""
    atoms = atoms_of(f)
    for start, cols, full in _blocks(atoms):
        hits = evaluate(f, cols, full) ^ (0 if value else full)
        if hits:
            return _row(atoms, start + (hits & -hits).bit_length() - 1)
    return None


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


def _column_paths(f: Formula) -> list[Path]:
    """Column positions in reading order.

    Emits one entry per atom and per binary connective; a run of
    negations directly above a node is folded into that node's column,
    so the recorded path points at the outermost negation of the run.
    """
    out: list[Path] = []

    def walk(node: Formula, path: Path, group_top: Path | None) -> None:
        if isinstance(node, Not):
            top = path if group_top is None else group_top
            walk(node.child, path + (Step.CHILD,), top)
            return
        own = path if group_top is None else group_top
        if isinstance(node, Atom):
            out.append(own)
            return
        walk(node.left, path + (Step.LEFT,), None)
        out.append(own)
        walk(node.right, path + (Step.RIGHT,), None)

    walk(f, (), None)
    return out


def table_labels(f: Formula, dialect: Dialect = Dialect.UNICODE) -> list[str]:
    """Header cells aligned with the table columns.

    Cells carry the symbol of their column; negations and opening
    parentheses attach to the cell that follows them, closing
    parentheses to the cell before.
    """
    neg = negation_symbol(dialect)
    labels: list[str] = []
    pending = ""

    def emit(core: str) -> None:
        nonlocal pending
        labels.append(pending + core)
        pending = ""

    def close() -> None:
        labels[-1] = labels[-1] + ")"

    def walk(node: Formula, at_root: bool = False) -> None:
        nonlocal pending
        if isinstance(node, Not):
            pending += neg
            walk(node.child)
            return
        if isinstance(node, Atom):
            emit(node.name)
            return
        # the outermost parenthesis pair is left off, as in print
        if not at_root:
            pending += "("
        walk(node.left)
        emit(operator_symbol(node.op, dialect))
        walk(node.right)
        if not at_root:
            close()

    walk(f, at_root=True)
    return labels


def truth_table(f: Formula) -> TruthTable:
    atoms = atoms_of(f)
    paths = _column_paths(f)
    columns = [Column(path, []) for path in paths]
    subs = [subformula_at(f, path) for path in paths]
    for _, cols, full in _blocks(atoms):
        width = full.bit_length()
        for col, sub in zip(columns, subs):
            bits = format(evaluate(sub, cols, full), f"0{width}b")[::-1]
            col.values += bits.encode().translate(_DIGITS)
    final_index = next(i for i, c in enumerate(columns) if c.path == ())
    return TruthTable(atoms, list(assignments(atoms)), columns, final_index)


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
