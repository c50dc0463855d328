"""Result types shared by the two tableau decision procedures."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formulas import Formula, Var
from .kripke import KripkeModel


class Verdict(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass(frozen=True)
class TableauNode:
    """A world of an open tableau completion.

    Carries the formula set at the last node of the world (the one a
    branching rule fired on, or the final leaf), the local-domain variables
    extracted from it, and the child worlds created by branching.  A node the
    search reused is shared by several parents.
    """

    gamma: tuple[Formula, ...]
    dom: frozenset[Var]
    children: tuple["TableauNode", ...]


@dataclass(frozen=True)
class DecisionResult:
    verdict: Verdict
    model: KripkeModel | None
    root: str | None
    assignment: dict[Var, str] | None
    normalized: Formula
    nodes_expanded: int
    max_recursion_depth: int
    tableau: TableauNode | None
    trace: tuple[str, ...] | None

    @property
    def is_sat(self) -> bool:
        return self.verdict is Verdict.SAT
