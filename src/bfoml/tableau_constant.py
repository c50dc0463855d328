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
from .formulas import (FRAGMENT_BUNDLES, Bundle, Formula, Fragment, Mod, Quant, Var,
                       all_vars, classify, cleanse, exists_box_vars, formula_key, free_vars,
                       fresh_like, is_clean, is_nnf, modal_depth, substitute, to_nnf, var_key)
from .kripke import KripkeModel, check, identity_assignment
from .tableau_common import (DecisionResult, Label, RuleApplication, Search,
                             TableauNode, apply_rule, assert_free_vars_tracked,
                             assert_vars_only_free, canonical_gamma, instantiate, read_model)
# Not called here; bench/tracing.py rebinds these names in this module.
from .tableau_common import assert_measure_decreases, find_clash  # noqa: F401


@dataclass(frozen=True)
class ConstantDomainPlan:
    """Everything fixed before constant-domain tableau construction starts."""

    pools: dict[Var, tuple[Var, ...]]
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
    used = set(all_vars(theta))
    pools: dict[Var, tuple[Var, ...]] = {}
    for x in sorted(exists_box_vars(theta), key=var_key):
        pool = []
        for _ in range(modal_depth(theta)):
            pool.append(fresh_like(x, used))
            used.add(pool[-1])
        pools[x] = tuple(pool)
    extra = fresh_like(Var("z"), used)
    domain = frozenset(free_vars(theta)) | frozenset(
        v for pool in pools.values() for v in pool) | {extra}
    return ConstantDomainPlan(pools, domain)


def make_label(formulas, used: frozenset[Var], plan: ConstantDomainPlan) -> Label:
    """A label over the fixed domain whose bundles stay in the exists-box fragment."""
    gamma = canonical_gamma(formulas)
    assert_free_vars_tracked(gamma, plan.domain)
    assert_vars_only_free(gamma, plan.domain)
    allowed = FRAGMENT_BUNDLES[Fragment.EXISTS_BOX]
    for f in gamma:
        if isinstance(f, Bundle) and (f.quant, f.mod) not in allowed:
            raise FragmentError("label escaped the exists-box fragment")
    return Label(gamma, used)


def branch(label: Label, bundles, memo: dict, plan: ConstantDomainPlan) -> RuleApplication:
    """The constant-domain branching rule described in the module docstring."""
    witnesses: dict[Var, Var] = {}
    exists_box = bundles[Quant.EXISTS, Mod.BOX]
    for b in exists_box:
        available = [v for v in plan.pools[b.var] if v not in label.vars]
        if not available:
            raise InternalSolverError(
                f"witness pool for {b.var} exhausted; depth bound violated")
        witnesses[b.var] = available[0]
    box_bodies = [instantiate(memo, substitute, b, witnesses[b.var]) for b in exists_box]
    new_used = label.vars | set(witnesses.values())
    return RuleApplication("br", tuple(
        make_label(box_bodies + [instantiate(memo, substitute, b, y)], new_used | {y}, plan)
        for y in sorted(plan.domain, key=var_key)
        for b in bundles[Quant.FORALL, Mod.DIAMOND]), new_used)


def expand_constant(label: Label, plan: ConstantDomainPlan,
                    memo: dict | None = None) -> RuleApplication | None:
    """One rule application under the fixed-domain regime; None on a leaf."""
    return apply_rule(label, partial(make_label, plan=plan), partial(branch, plan=plan), memo)


class _Search(Search):
    letter = "C"

    def __init__(self, plan: ConstantDomainPlan, budget: int | None, tracing: bool):
        super().__init__(budget, tracing)
        self.plan = plan

    def expand(self, label: Label) -> RuleApplication | None:
        return expand_constant(label, self.plan, self.memo)

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
    completion = search.run(make_label((theta,), frozenset(free_vars(theta)), plan))
    if completion is None:
        return search.result(theta)
    model = extract_constant_model(completion, plan)
    assignment = identity_assignment(free_vars(theta))
    if not check(model, "r", assignment, theta):
        raise InternalSolverError(
            f"extracted constant-domain model does not satisfy {formula_key(theta)}")
    return search.result(theta, completion, model, assignment)
