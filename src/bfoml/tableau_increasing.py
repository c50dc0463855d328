"""Terminating tableau decision procedure over increasing-domain models.

Works on the full bundled language.  This module is the increasing-domain
policy over the engine in ``tableau_common``: a label tracks the free
variables usable as witnesses (trace letter ``F``), and its branching rule
creates one successor world per existential-diamond formula plus one per
(universal-diamond formula, tracked variable) pair, feeding every exists-box
body and every instantiation of every forall-box body to each child.
Existential bundles supply their own variables as fresh witnesses, which the
growing local domains of increasing-domain models can absorb.

In the model read off an open completion, a world's local domain is its
tracked set.  The model checker re-checks it before SAT is reported.
"""

from __future__ import annotations

from .errors import InternalSolverError
from .formulas import (Formula, Mod, Quant, Var, all_vars, cleanse, formula_key,
                       free_vars, fresh_like, substitute, to_nnf, var_key)
from .kripke import check, identity_assignment
from .tableau_common import (DecisionResult, Label, RuleApplication, Search,
                             apply_rule, assert_free_vars_tracked,
                             assert_vars_only_free, canonical_gamma, instantiate, read_model)
# Not called here; bench/tracing.py rebinds these names in this module.
from .tableau_common import assert_measure_decreases, find_clash  # noqa: F401

# The read-off under its own name, which bench/tracing.py times.
extract_model = read_model


def make_label(formulas, free: frozenset[Var]) -> Label:
    gamma = canonical_gamma(formulas)
    assert_free_vars_tracked(gamma, free)
    assert_vars_only_free(gamma, free)
    return Label(gamma, free)


def branch(label: Label, bundles, memo: dict) -> RuleApplication:
    """The increasing-domain branching rule described in the module docstring."""
    exists_diamond = bundles[Quant.EXISTS, Mod.DIAMOND]
    exists_box = bundles[Quant.EXISTS, Mod.BOX]
    new_free = label.vars | {b.var for b in exists_diamond + exists_box}
    box_bodies = [b.body for b in exists_box]
    box_bodies += [instantiate(memo, substitute, b, y)
                   for b in bundles[Quant.FORALL, Mod.BOX]
                   for y in sorted(new_free, key=var_key)]
    children = [[b.body] + box_bodies for b in exists_diamond]
    children += [[instantiate(memo, substitute, b, y)] + box_bodies
                 for b in bundles[Quant.FORALL, Mod.DIAMOND]
                 for y in sorted(new_free, key=var_key)]
    return RuleApplication("br", tuple(make_label(formulas, new_free) for formulas in children),
                           new_free)


def expand(label: Label, memo: dict | None = None) -> RuleApplication | None:
    """Apply one tableau rule to the label; None when it is a finished leaf."""
    return apply_rule(label, make_label, branch, memo)


class _Search(Search):
    letter = "F"

    def expand(self, label: Label) -> RuleApplication | None:
        return expand(label, self.memo)


def decide_increasing(formula: Formula, budget: int | None = None,
                      tracing: bool = False) -> DecisionResult:
    """Satisfiability of any bundled formula over increasing-domain models.

    The input is desugared, converted to NNF and cleansed; the root label
    tracks its free variables plus one fresh variable.  On SAT the extracted
    model is verified with the model checker at the root under the identity
    assignment before it is returned.
    """
    theta = cleanse(to_nnf(formula))
    z = fresh_like(Var("z"), all_vars(theta))
    f_r = free_vars(theta) | {z}
    search = _Search(budget, tracing)
    completion = search.run(make_label((theta,), f_r))
    if completion is None:
        return search.result(theta)
    model = extract_model(completion)
    assignment = identity_assignment(f_r)
    if not check(model, "r", assignment, theta):
        raise InternalSolverError(
            f"extracted model does not satisfy {formula_key(theta)}")
    return search.result(theta, completion, model, assignment)
