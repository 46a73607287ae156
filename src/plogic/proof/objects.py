"""Proof objects: numbered lines with axiom / modus ponens / definition
justifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..defs import Direction
from ..formula import Formula, Operator, Path


@dataclass(frozen=True)
class AxiomJust:
    schema: int
    subst: tuple[tuple[str, Formula], ...]  # sorted by metavariable name

    def subst_map(self) -> dict[str, Formula]:
        return dict(self.subst)


@dataclass(frozen=True)
class MPJust:
    major: int
    minor: int


@dataclass(frozen=True)
class DefJust:
    """One definitional rewrite of the immediately preceding line."""

    name: Operator
    path: Path
    direction: Direction


Justification = Union[AxiomJust, MPJust, DefJust]


@dataclass
class ProofLine:
    index: int
    formula: Formula
    just: Justification


@dataclass
class Proof:
    goal: Formula
    lines: list[ProofLine]


def axiom_just(schema: int, subst: dict[str, Formula]) -> AxiomJust:
    return AxiomJust(schema, tuple(sorted(subst.items())))
