"""plogic: propositional logic with dual connective families.

Formula trees, a two-dialect concrete syntax, truth-table semantics with
the parallel/perpendicular relations, reversible negation-stripping and
xor-root rewrites, and a Hilbert-style proof kernel (independent checker
plus constructive proof generator).
"""

from . import errors
from .formula import (
    Atom,
    Bin,
    Formula,
    Language,
    Not,
    OpClass,
    Operator,
    Path,
    Step,
    atoms_of,
    dual,
    language_of,
    path_from_str,
    path_to_str,
    replace_at,
    subformula_at,
    subformulas,
)
from .parser import Dialect, parse, render
from .semantics import (
    ATOM_LIMIT,
    Assignment,
    Column,
    RelationVerdict,
    TruthTable,
    assignments,
    evaluate,
    first_row,
    is_contradiction,
    is_parallel,
    is_perpendicular,
    is_tautology,
    op_value,
    table_labels,
    truth_table,
)
from .transforms import (
    EncryptionTrace,
    desugar,
    psi_apply,
    psi_invert,
    upsilon_decrypt,
    upsilon_encrypt,
)

__version__ = "0.1.0"
