"""Constant-domain tableau: domain planning, rule steps, decisions, extraction."""

import pytest

from bfoml import (FragmentError, ResourceLimitError, Var, Verdict, check,
                   cleanse, enumerate_sat, parse, to_nnf, validate)
from bfoml.fuzz import FormulaGenerator
from bfoml.tableau_constant import (build_domain, decide_constant_eb as decide,
                                    expand_constant, extract_constant_model,
                                    make_label)


def plan_for(text):
    return build_domain(cleanse(to_nnf(parse(text))))


def names(vs):
    return sorted(str(v) for v in vs)


def test_build_domain_single_box():
    plan = plan_for("E x [] P(x)")
    assert plan.depth == 1
    assert names(plan.exists_vars) == ["x"]
    assert names(plan.pools[Var("x")]) == ["x^1"]
    assert names(plan.domain) == ["x^1", "z"]


def test_build_domain_nested_boxes():
    plan = plan_for("E x [] (P(x) & E y [] Q(x,y))")
    assert names(plan.domain) == ["x^1", "x^2", "y^1", "y^2", "z"]


def test_build_domain_no_exists_box():
    assert names(plan_for("A x <> P(x)").domain) == ["z"]


def test_build_domain_rejects_other_fragment():
    with pytest.raises(FragmentError):
        build_domain(parse("A x [] P(x)"))
    with pytest.raises(FragmentError):
        build_domain(parse("E x <> P(x)"))


def test_pools_are_disjoint_and_fresh():
    # x^1 already occurs in the input, so the pool for x must skip it.
    plan = plan_for("(E x [] P(x) & E x^1 [] Q(x^1,x^1))")
    flat = [v for pool in plan.pools.values() for v in pool]
    assert len(flat) == len(set(flat))
    from bfoml.formulas import all_vars
    assert not set(flat) & all_vars(plan.theta)
    assert Var("x", 1) not in plan.pools[Var("x")]


def test_expand_forall_diamond_over_domain():
    plan = plan_for("A y <> P(y)")
    lab = make_label("r", (parse("A y <> P(y)"),), frozenset(), plan)
    app = expand_constant(lab, plan)
    assert app.rule == "br"
    (child,) = app.children
    assert child.gamma == (parse("P(z)"),)
    assert child.vars == {Var("z")}


def test_expand_box_takes_lowest_unused_pool_member():
    plan = plan_for("(E x [] P(x) & A y <> Q(y))")
    lab = make_label("r", (parse("E x [] P(x)"), parse("A y <> Q(y)")),
                     frozenset(), plan)
    app = expand_constant(lab, plan)
    assert app.rule == "br"
    assert [sorted(str(f) for f in c.gamma) for c in app.children] == [
        ["P(x^1)", "Q(x^1)"], ["P(x^1)", "Q(z)"]]
    assert [names(c.vars) for c in app.children] == [["x^1"], ["x^1", "z"]]


def test_witness_pick_skips_pool_members_used_on_the_path():
    # Branch witnesses higher up may have consumed x^1 and x^2 already; the
    # box witness must then fall through to x^3 (pools are depth-sized for
    # exactly this reason).
    plan = plan_for("A y <> A y2 <> (E x [] P(x) & A y3 <> Q(y3))")
    assert names(plan.pools[Var("x")]) == ["x^1", "x^2", "x^3"]
    lab = make_label("r.0.0", (parse("E x [] P(x)"), parse("A y3 <> Q(y3)")),
                     frozenset({Var("x", 1), Var("x", 2)}), plan)
    app = expand_constant(lab, plan)
    assert app.rule == "br"
    for child in app.children:
        assert parse("P(x^3)") in child.gamma
        assert Var("x", 3) in child.vars


def test_deep_path_through_own_pool_decides_correctly():
    f = parse("A y <> A y2 <> (E x [] P(x) & A y3 <> Q(y3))")
    result = decide(f)
    assert result.verdict is Verdict.SAT
    assert check(result.model, result.root, {}, result.normalized)


def test_expand_end_with_only_boxes():
    plan = plan_for("(E x [] P(x) & R(v))")
    lab = make_label("r", (parse("E x [] P(x)"), parse("R(v)")), frozenset(), plan)
    app = expand_constant(lab, plan)
    assert app.rule == "end"
    assert app.children[0].gamma == (parse("R(v)"),)


def test_decide_vacuous_box_constant_domain():
    result = decide(parse("E x [] P(x)"))
    assert result.verdict is Verdict.SAT
    assert result.model.worlds == ("r",)
    assert set(result.model.domain) == {"x^1", "z"}
    assert result.model.is_constant_domain


def test_decide_forall_diamond_negative():
    result = decide(parse("A x <> !P(x)"))
    assert result.verdict is Verdict.SAT
    assert len(result.model.worlds) == 2
    assert set(result.model.domain) == {"z"}
    assert all(not preds for preds in result.model.rho.values())


def test_decide_conflict():
    assert decide(parse("(E x [] P(x) & A y <> !P(y))")).verdict is Verdict.UNSAT


def test_decide_rejects_wrong_fragment():
    with pytest.raises(FragmentError):
        decide(parse("A x [] P(x)"))


def test_extracted_models_are_constant_and_sound():
    gen = FormulaGenerator(59, fragment="eb")
    for _ in range(250):
        f = gen.formula()
        result = decide(f)
        if result.verdict is Verdict.SAT:
            assert validate(result.model) is None
            assert result.model.is_constant_domain
            assert check(result.model, result.root, result.assignment,
                         result.normalized)


def test_agrees_with_increasing_procedure():
    from bfoml import decide_increasing
    gen = FormulaGenerator(61, fragment="eb")
    for _ in range(200):
        f = gen.formula()
        assert decide(f).verdict is decide_increasing(f).verdict


def test_oracle_agreement_constant_small():
    gen = FormulaGenerator(67, fragment="eb")
    for _ in range(40):
        f = gen.formula()
        result = decide(f)
        try:
            found = enumerate_sat(f, 3, 2, "constant", budget=300_000)
        except ResourceLimitError:
            continue
        if found is not None:
            assert result.verdict is Verdict.SAT


def test_budget_error():
    wide = parse("(A x <> (P(x) | Q(x)) & (E y [] P(y) & E u [] Q(u)))")
    with pytest.raises(ResourceLimitError):
        decide(wide, budget=2)


def test_extraction_helper_matches_result():
    result = decide(parse("(E x [] P(x) & A y <> Q(y))"), tracing=True)
    assert result.verdict is Verdict.SAT
    plan = build_domain(result.normalized)
    assert extract_constant_model(result.tableau, plan) == result.model


def test_trace_text_is_pinned():
    result = decide(parse("(E x [] P(x) & A y <> (!P(y) | Q(y)))"), tracing=True)
    assert result.trace == (
        "r [and] Γ={(E x [] P(x) & A y <> (!P(y) | Q(y)))} C={}",
        "r [br] Γ={A y <> (!P(y) | Q(y)), E x [] P(x)} C={}",
        "  r.0 [or] Γ={(!P(x^1) | Q(x^1)), P(x^1)} C={x^1}",
        "    r.0 [closed: P(x^1) and !P(x^1)] Γ={!P(x^1), P(x^1)} C={x^1}",
        "    r.0 [open leaf] Γ={P(x^1), Q(x^1)} C={x^1}",
        "  r.1 [or] Γ={(!P(z) | Q(z)), P(x^1)} C={x^1,z}",
        "    r.1 [open leaf] Γ={!P(z), P(x^1)} C={x^1,z}",
    )
