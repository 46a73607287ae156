"""Expected answers for the benchmark, computed without ``plogic.semantics``.

The connective tables are transcribed here a third time (after the library
and its tests), formulas are walked iteratively so deep inputs never
recurse, and evaluation is bit-parallel: one Python int holds a whole
truth-table column, with bit ``i`` giving the value on row ``i``.  Rows are
in the library's table order, all-ones assignment first.

Only the node classes of ``plogic.formula`` are read (``Atom.name``,
``Not.child``, ``Bin.op/left/right``); nothing here calls library code.
"""

from __future__ import annotations

from plogic.formula import Atom, Bin, Not

# Output of each connective on inputs (1,1), (1,0), (0,1), (0,0).
TABLES = {
    "or": (1, 1, 1, 0),
    "and": (1, 0, 0, 0),
    "imp": (1, 0, 1, 1),
    "iff": (1, 0, 0, 1),
    "nor": (0, 0, 0, 1),
    "nand": (0, 1, 1, 1),
    "nimp": (0, 1, 0, 0),
    "xor": (0, 1, 1, 0),
    "xiff": (1, 0, 0, 1),
}

def atom_order(*formulas) -> list[str]:
    """Distinct atom names by first occurrence, left to right, across formulas."""
    seen: dict[str, None] = {}
    for f in formulas:
        stack = [f]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                seen.setdefault(node.name, None)
            elif isinstance(node, Not):
                stack.append(node.child)
            else:
                stack.append(node.right)
                stack.append(node.left)
    return list(seen)


def render(f) -> str:
    """Fully parenthesized ascii text, the grammar's canonical spelling."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Atom):
            out.append(item.name)
        elif isinstance(item, Not):
            out.append("!")
            stack.append(item.child)
        else:
            stack.extend([")", item.right, f" {item.op.value} ", item.left, "("])
    return "".join(out)


def same(a, b) -> bool:
    """Structural equality, iterative, independent of dataclass ``__eq__``."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, Atom) and isinstance(y, Atom):
            if x.name != y.name:
                return False
        elif isinstance(x, Not) and isinstance(y, Not):
            stack.append((x.child, y.child))
        elif isinstance(x, Bin) and isinstance(y, Bin):
            if x.op.value != y.op.value:
                return False
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
        else:
            return False
    return True


class Columns:
    """Bit-parallel evaluation over a fixed atom order.

    With ``prefix`` set, only the first ``2**prefix`` rows are evaluated:
    there the leading atoms are all 1 and the last ``prefix`` atoms run
    through their own table, so a witness among the first rows costs no
    more than a small table.
    """

    def __init__(self, names: list[str], prefix: int | None = None):
        self.names = list(names)
        self.n = len(names)
        self.rows = 1 << (self.n if prefix is None else min(prefix, self.n))
        self.mask = (1 << self.rows) - 1
        self.atoms = {}
        for j, name in enumerate(self.names):
            k = self.n - 1 - j  # atom j is bit k of the row's assignment number
            if (1 << k) >= self.rows:
                self.atoms[name] = self.mask
                continue
            # Row i has assignment number 2**n-1-i, so atom j is 1 exactly
            # where bit k of i is 0: runs of 2**k ones, then 2**k zeros.
            col, width = (1 << (1 << k)) - 1, 2 << k
            while width < self.rows:
                col |= col << width
                width *= 2
            self.atoms[name] = col

    def value(self, f) -> int:
        memo: dict[int, int] = {}
        stack = [(f, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in memo:
                continue
            if isinstance(node, Atom):
                memo[id(node)] = self.atoms[node.name]
            elif isinstance(node, Not):
                if ready:
                    memo[id(node)] = ~memo[id(node.child)] & self.mask
                else:
                    stack.extend([(node, True), (node.child, False)])
            elif ready:
                a, b = memo[id(node.left)], memo[id(node.right)]
                t = TABLES[node.op.value]
                out = 0
                if t[0]:
                    out |= a & b
                if t[1]:
                    out |= a & ~b
                if t[2]:
                    out |= ~a & b
                if t[3]:
                    out |= ~a & ~b
                memo[id(node)] = out & self.mask
            else:
                stack.extend([(node, True), (node.left, False), (node.right, False)])
        return memo[id(f)]

    def row(self, i: int) -> dict[str, int]:
        m = (1 << self.n) - 1 - i
        return {name: (m >> (self.n - 1 - j)) & 1 for j, name in enumerate(self.names)}

    def index_of(self, row: dict[str, int]) -> int:
        m = 0
        for name in self.names:
            m = (m << 1) | row[name]
        return (1 << self.n) - 1 - m

    def bits(self, column: int) -> str:
        """Column values as a '0'/'1' string in row order."""
        return format(column, f"0{self.rows}b")[::-1]


def first_set(x: int) -> int | None:
    """Lowest row index whose bit is set, or None."""
    return (x & -x).bit_length() - 1 if x else None


PREFIX = 10


def classify(f) -> tuple[str, dict | None, dict | None, int]:
    """Verdict, first true row, first false row, rows a row scan must visit."""
    names = atom_order(f)
    for prefix in (PREFIX, None):
        cols = Columns(names, prefix)
        v = cols.value(f)
        t, z = first_set(v), first_set(~v & cols.mask)
        if t is not None and z is not None:
            return "CONTINGENT", cols.row(t), cols.row(z), max(t, z) + 1
    if z is None:
        return "TAUTOLOGY", None, None, cols.rows
    return "CONTRADICTION", None, None, cols.rows


def relate(a, b) -> tuple[dict | None, dict | None, int]:
    """First rows where parallel and perpendicular fail, and rows scanned."""
    names = atom_order(a, b)
    for prefix in (PREFIX, None):
        cols = Columns(names, prefix)
        diff = cols.value(a) ^ cols.value(b)
        par, perp = first_set(diff), first_set(~diff & cols.mask)
        if par is not None and perp is not None:
            break
    scanned = (cols.rows if par is None else par + 1) + (
        cols.rows if perp is None else perp + 1
    )
    return (
        None if par is None else cols.row(par),
        None if perp is None else cols.row(perp),
        scanned,
    )


def column_paths(f) -> list[tuple[str, object]]:
    """Table columns in reading order as (path string, subformula).

    One column per atom and per binary connective; a run of negations
    directly above a node shares that node's column, whose path then
    points at the outermost negation of the run.
    """
    out: list[tuple[str, object]] = []
    # (node, path, top) where top is the (path, node) of the enclosing run
    stack: list = [(f, "", None)]
    while stack:
        item = stack.pop()
        if item[0] == "emit":
            out.append(item[1])
            continue
        node, path, top = item
        if isinstance(node, Not):
            stack.append((node.child, path + "C", top or (path, node)))
            continue
        own = top or (path, node)
        if isinstance(node, Atom):
            out.append(own)
        else:
            stack.append((node.right, path + "R", None))
            stack.append(("emit", own))
            stack.append((node.left, path + "L", None))
    return out
