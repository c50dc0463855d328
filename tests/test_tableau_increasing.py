"""Increasing-domain tableau: rule steps, decisions, extraction, soundness."""

import pytest

from bfoml import (FragmentError, InternalSolverError, ResourceLimitError, Var,
                   Verdict, check, decide_constant_eb, decide_increasing,
                   enumerate_sat, parse, validate)
from bfoml.fuzz import FormulaGenerator
from bfoml.tableau_increasing import expand, extract_model, make_label

from golden import GOLDEN


def label(texts, names):
    return make_label(tuple(parse(t) for t in texts),
                      frozenset(Var(n) for n in names))


def test_expand_exists_diamond():
    app = expand(label(["E x <> P(x)"], ["z"]))
    assert app.rule == "br"
    (child,) = app.children
    assert child.gamma == (parse("P(x)"),)
    assert child.vars == {Var("z"), Var("x")}


def test_expand_forall_diamond_instantiates_over_tracked():
    app = expand(label(["A y <> P(y)"], ["z"]))
    assert app.rule == "br"
    (child,) = app.children
    assert child.gamma == (parse("P(z)"),)
    assert child.vars == {Var("z")}


def test_label_with_boxes_and_no_diamond_is_a_leaf():
    # Its box bundles hold vacuously at a world with no successor.
    assert expand(label(["E x [] P(x)", "A y [] Q(y)", "Q(z)"], ["z"])) is None


def test_expand_box_bodies_reach_every_child():
    app = expand(label(["E x <> P(x)", "E y [] Q(y)", "A u [] R(u)"], ["z"]))
    assert app.rule == "br"
    (child,) = app.children
    # The exists-box body arrives as is; the forall-box body is instantiated
    # with every enlarged tracked variable (x, y, z).
    assert parse("Q(y)") in child.gamma
    for name in ("x", "y", "z"):
        assert parse(f"R({name})") in child.gamma


def test_expand_leaf():
    assert expand(label(["P(z)", "!Q(z,z)"], ["z"])) is None


def test_label_outside_the_nnf_grammar_is_rejected():
    with pytest.raises(InternalSolverError, match="NNF grammar"):
        expand(make_label((parse("(P(x) -> Q(x))"),), frozenset({Var("x")})))


def test_expand_all_four_bundle_groups_at_once():
    app = expand(label(["E a <> P(a)", "E b [] Q(b,b)", "A c <> P(c)",
                        "A d [] Q(d,d)", "P(z)"], ["z"]))
    assert app.rule == "br"
    assert app.vars == {Var("a"), Var("b"), Var("z")}
    shared = {parse("Q(b,b)"), parse("Q(a,a)"), parse("Q(z,z)")}
    got = [set(c.gamma) for c in app.children]
    # One successor for the exists-diamond, one per (forall-diamond, tracked
    # variable) pair; every child carries the box bodies and instantiations.
    assert got == [
        {parse("P(a)")} | shared,
        {parse("P(a)")} | shared,
        {parse("P(b)")} | shared,
        {parse("P(z)")} | shared,
    ]


def test_decide_vacuous_box_model_shape():
    result = decide_increasing(parse("E x [] P(x)"))
    assert result.verdict is Verdict.SAT
    assert result.model.worlds == ("r",)
    assert result.model.local["r"] == frozenset({"z"})
    assert result.model.facts("r", "P") == frozenset()


def test_decide_box_diamond_conflict():
    assert decide_increasing(parse("(E x [] P(x) & A y <> !P(y))")).verdict is Verdict.UNSAT


def test_decide_literal_clash():
    assert decide_increasing(parse("(P(x) & !P(x))")).verdict is Verdict.UNSAT


def test_extract_diamond_chain():
    result = decide_increasing(parse("E x <> P(x)"))
    model = result.model
    assert len(model.worlds) == 2
    assert model.local["r"] == frozenset({"z", "x"})
    child = next(w for w in model.worlds if w != "r")
    assert model.facts(child, "P") == frozenset({("x",)})


def test_extracted_models_validate_and_satisfy():
    gen = FormulaGenerator(47)
    for _ in range(250):
        f = gen.formula()
        result = decide_increasing(f)
        if result.verdict is Verdict.SAT:
            assert validate(result.model) is None
            assert check(result.model, result.root, result.assignment,
                         result.normalized)


def test_oracle_agreement_small():
    gen = FormulaGenerator(53)
    for _ in range(60):
        f = gen.formula()
        result = decide_increasing(f)
        try:
            found = enumerate_sat(f, 3, 2, "increasing", budget=300_000)
        except ResourceLimitError:
            continue
        if found is not None:
            assert result.verdict is Verdict.SAT


def test_unclean_input_is_normalized_internally():
    # Shadowed and free/bound-conflicting binders are fine as inputs; the
    # decision runs on the cleansed form and verifies its model against it.
    for text in ["E x [] (P(x) & E x [] Q(x,x))",
                 "(P(x) & E x [] (Q(x,x) | !P(x)))"]:
        result = decide_increasing(parse(text))
        assert result.verdict is Verdict.SAT
        assert check(result.model, result.root, result.assignment,
                     result.normalized)


def test_open_formula_root_tracking():
    result = decide_increasing(parse("(P(x) & E y [] Q(y))"))
    assert result.verdict is Verdict.SAT
    assert Var("x") in result.assignment
    assert result.assignment[Var("x")] == "x"


def test_fresh_root_variable_avoids_collision():
    result = decide_increasing(parse("(P(z) & Q(z))"))
    assert result.verdict is Verdict.SAT
    assert Var("z", 1) in result.assignment


def test_budget_error():
    deep = parse("A x <> A y <> A u <> (P(x) & (Q(x,y) | Q(y,u)))")
    with pytest.raises(ResourceLimitError):
        decide_increasing(deep, budget=3)


def test_trace_records_rules():
    result = decide_increasing(parse("(E x <> P(x) & Q(y))"), tracing=True)
    text = "\n".join(result.trace)
    assert "[br]" in text and "open leaf" in text


def test_nodes_expanded_at_least_one():
    assert decide_increasing(parse("T")).nodes_expanded >= 1


def test_extract_model_roundtrip_through_public_helper():
    result = decide_increasing(parse("E x <> P(x)"))
    rebuilt = extract_model(result.tableau)
    assert rebuilt == result.model


@pytest.mark.parametrize("decide, fragment", [(decide_increasing, "full"),
                                              (decide_constant_eb, "eb")],
                         ids=["increasing", "constant"])
def test_model_domain_is_the_union_of_local_domains(decide, fragment):
    gen = FormulaGenerator(71, fragment=fragment)
    formulas = [parse(text) for _, text, _ in GOLDEN] + [gen.formula() for _ in range(100)]
    for f in formulas:
        try:
            result = decide(f)
        except FragmentError:
            continue
        if result.is_sat:
            local = set().union(*result.model.local.values())
            assert set(result.model.domain) == local


def test_trace_text_is_pinned():
    result = decide_increasing(parse("(Q(y) & (!Q(y) | E x <> (E u [] P(u) & !P(x))))"),
                               tracing=True)
    assert result.trace == (
        "r [or] Γ={(!Q(y) | E x <> (E u [] P(u) & !P(x))), Q(y)} F={y,z}",
        "  r [closed: Q(y) and !Q(y)] Γ={!Q(y), Q(y)} F={y,z}",
        "  r [br] Γ={E x <> (E u [] P(u) & !P(x)), Q(y)} F={y,z}",
        "    r.0 [open leaf] Γ={!P(x), E u [] P(u)} F={x,y,z}",
    )
