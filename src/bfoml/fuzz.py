"""Seeded random generation of formulas and models, plus differential runs.

The corpus generator emits clean NNF-surface formulas (negation only on
atoms) over a small predicate and variable pool, bounded in modal depth and
boolean size, optionally restricted to one bundle pair.  Everything is driven
by an explicit seed so runs are reproducible byte for byte.

Two differential drivers live here so the CLI and the acceptance suite share
one implementation: verdict agreement of the two tableau procedures on the
exists-box fragment, and one-sided agreement of a tableau against the
bounded model-search oracle (a found model must mean SAT; a budget-out is
inconclusive and only counted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .enumeration import enumerate_sat, require_semantics
from .errors import ArgumentError, ResourceLimitError
from .formulas import (FRAGMENT_BUNDLES, And, Atom, Bundle, Formula, Fragment, Not, Or,
                       Predicate, Var, cleanse, formula_key, var_key)
from .kripke import KripkeModel
from .tableau_constant import decide_constant_eb
from .tableau_increasing import decide_increasing

# The generator's fragment names, in the order `bfoml fuzz --fragment` lists them.
FRAGMENTS = {"full": Fragment.FULL, "eb": Fragment.EXISTS_BOX, "ed": Fragment.EXISTS_DIAMOND}
# The predicate pool and size bounds every generated formula and model shares.
_PREDICATES = (Predicate("P", 1), Predicate("Q", 2))
_MAX_MODAL_DEPTH = 3
_MAX_WORLDS = 3
_MAX_DOMAIN = 3


class FormulaGenerator:
    """Deterministic stream of clean NNF formulas for a given seed."""

    def __init__(self, seed: int, fragment: str = "full",
                 variables: tuple[str, ...] = ("x", "y", "u", "v")):
        if fragment not in FRAGMENTS:
            raise ArgumentError(f"fragment must be one of {sorted(FRAGMENTS)}")
        self.rng = random.Random(seed)
        self.kinds = FRAGMENT_BUNDLES[FRAGMENTS[fragment]]
        if not variables:
            raise ArgumentError("variables must name at least one variable")
        self.variables = tuple(Var(n) for n in variables)

    def formula(self) -> Formula:
        return cleanse(self.raw())

    def raw(self, depth: int | None = None, budget: int | None = None) -> Formula:
        """Like formula() but without the cleansing pass; binders may clash."""
        if depth is None:
            depth = self.rng.randint(0, _MAX_MODAL_DEPTH)
        if budget is None:
            budget = self.rng.randint(2, 8)
        return self._gen(depth, budget)

    def _literal(self) -> Formula:
        pred = self.rng.choice(_PREDICATES)
        args = tuple(self.rng.choice(self.variables) for _ in range(pred.arity))
        node: Formula = Atom(pred, args)
        if self.rng.random() < 0.4:
            node = Not(node)
        return node

    def _gen(self, depth: int, budget: int) -> Formula:
        if budget <= 1:
            return self._literal()
        roll = self.rng.random()
        if roll < 0.30:
            return self._literal()
        if roll < 0.65 or depth == 0:
            ctor = And if self.rng.random() < 0.5 else Or
            split = self.rng.randint(1, budget - 1)
            return ctor(self._gen(depth, split), self._gen(depth, budget - split))
        quant, mod = self.rng.choice(self.kinds)
        return Bundle(quant, mod, self.rng.choice(self.variables),
                      self._gen(depth - 1, budget - 1))


class ModelGenerator:
    """Small random models for semantic-equivalence spot checks."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def model(self, constant: bool = False) -> KripkeModel:
        rng = self.rng
        n_worlds = rng.randint(1, _MAX_WORLDS)
        n_dom = rng.randint(1, _MAX_DOMAIN)
        worlds = [f"w{i}" for i in range(n_worlds)]
        domain = [f"a{i}" for i in range(n_dom)]
        edges = {(w, v) for w in worlds for v in worlds if rng.random() < 0.35}
        if constant:
            local = {w: set(domain) for w in worlds}
        else:
            local = {w: {d for d in domain if rng.random() < 0.7} or {domain[0]}
                     for w in worlds}
            # Propagate along edges until the growth condition holds.
            for _ in range(n_worlds):
                for w, v in edges:
                    local[v] |= local[w]
        rho: dict[str, dict[str, set[tuple[str, ...]]]] = {w: {} for w in worlds}
        for w in worlds:
            for pred in _PREDICATES:
                tuples = {t for t in product(domain, repeat=pred.arity) if rng.random() < 0.35}
                if tuples:
                    rho[w][pred.name] = tuples
        return KripkeModel.create(worlds, domain, edges, local, rho)

    def assignment(self, model: KripkeModel, world: str, variables) -> dict[Var, str]:
        # Sorted draw order keeps runs reproducible across hash seeds.
        pool = sorted(model.local[world])
        return {v: self.rng.choice(pool) for v in sorted(variables, key=var_key)}


@dataclass
class DifferentialReport:
    """Outcome counts of one differential run; failures hold rendered cases."""

    cases: int = 0
    sat: int = 0
    unsat: int = 0
    oracle_confirmed: int = 0
    oracle_none: int = 0
    inconclusive: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"cases={self.cases} sat={self.sat} unsat={self.unsat} "
               f"oracle-confirmed={self.oracle_confirmed} oracle-none={self.oracle_none} "
               f"inconclusive={self.inconclusive} failures={len(self.failures)}"]
        if self.failures:
            out.append(f"first counterexample: {self.failures[0]}")
        return out


def run_eb_equivalence(seed: int, cases: int, budget: int | None = None) -> DifferentialReport:
    """Both decision procedures must agree on exists-box formulas."""
    gen = FormulaGenerator(seed, fragment="eb")
    report = DifferentialReport()
    for _ in range(cases):
        f = gen.formula()
        report.cases += 1
        increasing = decide_increasing(f, budget=budget)
        constant = decide_constant_eb(f, budget=budget)
        if increasing.is_sat:
            report.sat += 1
        else:
            report.unsat += 1
        if increasing.verdict is not constant.verdict:
            report.failures.append(
                f"{formula_key(f)}: increasing={increasing.verdict.value} "
                f"constant={constant.verdict.value}")
    return report


def run_oracle_agreement(seed: int, cases: int, fragment: str = "full",
                         semantics: str = "increasing", max_worlds: int = 4,
                         max_domain: int = 3, budget: int | None = None,
                         oracle_budget: int | None = None) -> DifferentialReport:
    """The oracle finding a bounded model must mean the tableau says SAT.

    With constant semantics the corpus is restricted to the exists-box
    fragment and compared against the constant-domain procedure; otherwise
    the increasing-domain procedure decides.  Oracle budget-outs are counted
    as inconclusive, never as disagreements.  An unknown semantics, or the
    exists-diamond fragment with constant semantics, raises ArgumentError
    before any formula is decided.
    """
    require_semantics(semantics)
    if semantics == "constant":
        if fragment == "ed":
            raise ArgumentError("constant semantics needs the exists-box fragment, got ed")
        if fragment == "full":
            fragment = "eb"
    gen = FormulaGenerator(seed, fragment=fragment)
    report = DifferentialReport()
    for _ in range(cases):
        f = gen.formula()
        report.cases += 1
        if semantics == "constant":
            decision = decide_constant_eb(f, budget=budget)
        else:
            decision = decide_increasing(f, budget=budget)
        if decision.is_sat:
            report.sat += 1
        else:
            report.unsat += 1
        try:
            found = enumerate_sat(f, max_worlds, max_domain, semantics,
                                  budget=oracle_budget)
        except ResourceLimitError:
            report.inconclusive += 1
            continue
        if found is None:
            report.oracle_none += 1
            continue
        report.oracle_confirmed += 1
        if not decision.is_sat:
            report.failures.append(
                f"{formula_key(f)}: oracle found a model but tableau says UNSAT")
    return report
