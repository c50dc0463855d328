"""Clash sets and backjumping.

A closed label records its clash set: formulas of that label which, under the
same tracked set, already close it.  An or whose closed child's clash set
lies in the premise closes the premise without trying its other child.  Each
SAT case below turns UNSAT if a clash set keeps too little.
"""

from functools import partial

import pytest

from bfoml import (And, Bundle, FragmentError, Mod, Not, Or, Quant, Var, atom, check,
                   decide_constant_eb, decide_increasing, parse, tableau_constant,
                   tableau_increasing)
from bfoml.fuzz import FormulaGenerator

from golden import GOLDEN

BOTH = [decide_increasing, decide_constant_eb]

SAT_CASES = [
    # The inner or closes both its children; its clash set must keep the
    # inner or itself, which the root lacks, so the root tries its T.
    ("(((P(x) | Q(x)) | T) & (!P(x) & !Q(x)))", BOTH),
    # A closed br child closes the premise by all its bundles, the diamond
    # included; the diamond came from the left disjunct.
    ("((E y <> R(y) | T) & A y [] !R(y))", [decide_increasing]),
    ("((A y <> R(y) | T) & E z [] !R(z))", BOTH),
    # The label {!P, !Q, (P | Q), A} closes under the left disjunct, where its
    # clash set lies in the premise, and is met again under the right one,
    # where it does not.
    ("(((A(x) | B(x)) & ((P(x) | Q(x)) & (!P(x) & !Q(x)))) | "
     "((((P(x) | Q(x)) | T) & A(x)) & (!P(x) & !Q(x))))", BOTH),
]


@pytest.mark.parametrize("text, procedures", SAT_CASES,
                         ids=["or-keeps-its-or", "br-keeps-e-diamond", "br-keeps-a-diamond",
                              "closed-label-met-again"])
def test_a_clash_set_outside_the_premise_does_not_backjump(text, procedures):
    for decide in procedures:
        result = decide(parse(text))
        assert result.is_sat, decide.__name__
        assert check(result.model, result.root, result.assignment, result.normalized)


@pytest.mark.parametrize("decide", BOTH)
def test_a_closed_label_met_again_keeps_its_clash_set(decide):
    result = decide(parse(SAT_CASES[-1][0]), tracing=True)
    assert result.is_sat
    assert "r [reuses r, closed] Γ={!P(x), !Q(x), (P(x) | Q(x)), A(x)}" in "\n".join(result.trace)
    assert len(result.trace) == result.nodes_expanded


def or_backtrack(n, quant):
    """(P1(x) | Q1(x)) & ... & (Pn(x) | Qn(x)) & quant y <> (R(y) & !R(y))."""
    r = atom("R", "y")
    out = Bundle(quant, Mod.DIAMOND, Var("y"), And(r, Not(r)))
    for i in range(n, 0, -1):
        out = And(Or(atom(f"P{i}", "x"), atom(f"Q{i}", "x")), out)
    return out


@pytest.mark.parametrize("decide, quant", [(decide_increasing, Quant.EXISTS),
                                           (decide_constant_eb, Quant.FORALL)],
                         ids=["increasing", "constant"])
@pytest.mark.parametrize("n", range(6, 17, 2))
def test_independent_disjunctions_cost_linear_search(decide, quant, n):
    # The clash lies below every or, so the first closed leaf closes the
    # root: n ors, one br and its closed child.
    result = decide(or_backtrack(n, quant))
    assert not result.is_sat
    assert result.nodes_expanded == n + 2


@pytest.mark.parametrize("decide, quant", [(decide_increasing, Quant.EXISTS),
                                           (decide_constant_eb, Quant.FORALL)],
                         ids=["increasing", "constant"])
def test_forty_independent_disjunctions_fit_a_small_budget(decide, quant):
    assert not decide(or_backtrack(40, quant), budget=100).is_sat


def recording(module, monkeypatch):
    """Patch the module's search class so that each search is kept."""
    searches = []

    class Recorded(module._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(module, "_Search", Recorded)
    return searches


def corpus(fragment):
    """The golden formulas and conjunctions of three one-variable draws,
    which clash often."""
    gen = FormulaGenerator(29, fragment=fragment, variables=("x",))
    formulas = [parse(text) for _, text, _ in GOLDEN]
    formulas += [And(And(gen.formula(), gen.formula()), gen.formula()) for _ in range(150)]
    return formulas + [or_backtrack(4, Quant.FORALL), parse(SAT_CASES[-1][0])]


def fresh(search):
    """A new search of the same procedure, without a budget or a trace."""
    if isinstance(search, tableau_constant._Search):
        return type(search)(search.plan, None, False)
    return type(search)(None, False)


@pytest.mark.parametrize("module, decide, fragment",
                         [(tableau_increasing, decide_increasing, "full"),
                          (tableau_constant, decide_constant_eb, "eb")],
                         ids=["increasing", "constant"])
def test_every_clash_set_closes_on_its_own_and_does_not_depend_on_the_path(
        module, decide, fragment, monkeypatch):
    searches = recording(module, monkeypatch)
    checked = 0
    for f in corpus(fragment):
        try:
            decide(f)
        except FragmentError:  # the golden corpus holds formulas of every fragment
            continue
        search = searches.pop()
        make = module.make_label
        if module is tableau_constant:
            make = partial(make, plan=search.plan)
        for label, (_, node, clash) in search.solved.items():
            if node is not None:
                assert clash is None
                continue
            assert clash <= set(label.gamma)
            # The clash set alone, under the label's tracked set, closes.
            assert fresh(search).run(make(tuple(clash), label.vars)) is None, str(label.gamma)
            # Solved before any other label, the label gets the same clash set.
            first = fresh(search)
            assert first.run(label) is None
            assert first.solved[label][2] == clash
            checked += 1
    assert checked > 100
