"""Terminating tableau decision procedure over constant-domain models.

Restricted to the exists-box fragment (only ``E x []`` and ``A x <>``
bundles after NNF).  This module is the constant-domain policy over the
engine in ``tableau_common``.  Constant domains rule out inventing witnesses
on the fly, so the whole domain is fixed up front: the formula's free
variables, a pool of modal-depth-many fresh variables for each exists-box
binder, and one extra fresh variable.  Along every branch a label tracks the
used-variable set (trace letter ``C``); an exists-box formula always takes
the lowest-index unused member of its own pool, and the branching rule fans
out over every domain variable for each universal-diamond formula.

Every world records the whole fixed domain, so the model read off an open
completion has constant domains.  The model checker re-checks it before SAT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import FragmentError, InternalSolverError
from .formulas import (Formula, Fragment, Var, all_vars, classify, cleanse,
                       exists_box_vars, formula_key, free_vars, fresh_like,
                       fresh_var, is_clean, is_nnf, modal_depth, substitute,
                       to_nnf, var_key)
from .kripke import KripkeModel, check, identity_assignment
from .results import DecisionResult, TableauNode
from .tableau_common import (Label, RuleApplication, Search,
                             assert_free_vars_tracked, assert_vars_only_free,
                             canonical_gamma, local_rule, partition, read_model)
# Not called here; bench/tracing.py rebinds these names in this module.
from .tableau_common import assert_measure_decreases, find_clash  # noqa: F401


@dataclass(frozen=True)
class ConstantDomainPlan:
    """Everything fixed before constant-domain tableau construction starts."""

    theta: Formula
    depth: int
    exists_vars: tuple[Var, ...]
    pools: dict[Var, tuple[Var, ...]]
    extra: Var
    domain: frozenset[Var]


def build_domain(theta: Formula) -> ConstantDomainPlan:
    """Precompute the fixed domain for a clean NNF exists-box formula.

    Each exists-box binder x gets modal-depth-many fresh indexed variants of
    its own name; pools are pairwise disjoint and avoid every variable of the
    formula.  The domain is the free variables, all pool members, and one
    fresh extra variable, so it is never empty.
    """
    fragment = classify(theta)
    if fragment is not Fragment.EXISTS_BOX:
        raise FragmentError(
            f"constant-domain procedure needs the exists-box fragment, got {fragment.value}")
    if not (is_nnf(theta) and is_clean(theta)):
        raise InternalSolverError("build_domain expects a clean NNF input")
    h = modal_depth(theta)
    used = set(all_vars(theta))
    exists_vars = tuple(sorted(exists_box_vars(theta), key=var_key))
    pools: dict[Var, tuple[Var, ...]] = {}
    for x in exists_vars:
        pool = []
        while len(pool) < h:
            candidate = fresh_var(x, used)
            used.add(candidate)
            pool.append(candidate)
        pools[x] = tuple(pool)
    extra = fresh_like(Var("z"), used)
    domain = frozenset(free_vars(theta)) | frozenset(
        v for pool in pools.values() for v in pool) | {extra}
    return ConstantDomainPlan(theta, h, exists_vars, pools, extra, domain)


def make_label(world: str, formulas, used: frozenset[Var],
               plan: ConstantDomainPlan) -> Label:
    gamma = canonical_gamma(formulas)
    assert_free_vars_tracked(gamma, plan.domain)
    assert_vars_only_free(gamma, plan.domain)
    return Label(world, gamma, used)


def expand_constant(label: Label, plan: ConstantDomainPlan) -> RuleApplication | None:
    """One rule application under the fixed-domain regime; None on a leaf.

    The boolean and end rules are the engine's.  Branching needs at least one
    universal-diamond formula and creates one child per domain variable and
    universal-diamond formula; every child also receives each exists-box body
    with its binder replaced by the chosen pool witness.
    """
    part = partition(label.gamma)
    if part.exists_diamond or part.forall_box:
        raise FragmentError("label escaped the exists-box fragment")
    if not part.can_branch:
        return local_rule(label, part, partial(make_label, plan=plan))
    witnesses: dict[Var, Var] = {}
    for b in part.exists_box:
        pool = plan.pools[b.var]
        available = [v for v in pool if v not in label.vars]
        if not available:
            raise InternalSolverError(
                f"witness pool for {b.var} exhausted; depth bound violated")
        if len(pool) - len(available) > plan.depth - 1:
            raise InternalSolverError(
                f"more than depth-1 pool members of {b.var} consumed on one path")
        witnesses[b.var] = available[0]
    box_bodies = [substitute(b.body, witnesses[b.var], b.var) for b in part.exists_box]
    new_used = label.vars | set(witnesses.values())
    fan = [(y, b) for y in sorted(plan.domain, key=var_key) for b in part.forall_diamond]
    return RuleApplication("br", tuple(
        make_label(f"{label.world}.{i}", box_bodies + [substitute(b.body, y, b.var)],
                   new_used | {y}, plan)
        for i, (y, b) in enumerate(fan)), new_used)


class _Search(Search):
    letter = "C"

    def __init__(self, plan: ConstantDomainPlan, budget: int | None, tracing: bool):
        super().__init__(budget, tracing)
        self.plan = plan

    def expand(self, label: Label) -> RuleApplication | None:
        return expand_constant(label, self.plan)

    def local_domain(self, tracked: frozenset[Var]) -> frozenset[Var]:
        return self.plan.domain


def extract_constant_model(tableau: TableauNode, plan: ConstantDomainPlan) -> KripkeModel:
    """Model over ``plan.domain``, which every world of the completion records."""
    return read_model(tableau)


def decide_constant_eb(formula: Formula, budget: int | None = None,
                       tracing: bool = False) -> DecisionResult:
    """Satisfiability of an exists-box formula over constant-domain models.

    The input is desugared, converted to NNF and cleansed, and must then lie
    in the exists-box fragment.  On SAT the extracted constant-domain model
    is verified with the model checker before it is returned.
    """
    theta = cleanse(to_nnf(formula))
    plan = build_domain(theta)
    search = _Search(plan, budget, tracing)
    completion = search.solve(make_label("r", (theta,), frozenset(free_vars(theta)), plan), 1)
    if completion is None:
        return search.result(theta)
    model = extract_constant_model(completion, plan)
    assignment = identity_assignment(free_vars(theta))
    if not check(model, "r", assignment, theta):
        raise InternalSolverError(
            f"extracted constant-domain model does not satisfy {formula_key(theta)}")
    return search.result(theta, completion, model, assignment)
