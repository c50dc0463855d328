"""Constant-domain tableau: domain planning, rule steps, decisions, extraction."""

import pytest

from bfoml import (And, FragmentError, InternalSolverError, Not, ResourceLimitError, Var,
                   Verdict, check, cleanse, enumerate_sat, parse, to_nnf, validate)
from bfoml.formulas import all_vars, exists_box_vars, free_vars, fresh_like, modal_depth, var_key
from bfoml.fuzz import FormulaGenerator
from bfoml.tableau_constant import (ConstantDomainPlan, _Search, build_domain,
                                    decide_constant_eb as decide, expand_constant,
                                    extract_constant_model, make_label)


# bench/workloads.chain_ad(random.Random(1), n) for n = 2, 3, 4.
CHAIN_AD = {
    2: "A xmj <> (A vca <> (Qou(xmj) & E ksg [] Pgm(vca,ksg)) & E nlt [] Pgm(xmj,nlt))",
    3: ("A xmj <> (A vca <> (E lpc [] Pgm(vca,lpc) & A xlt <> (Qou(xmj) & "
        "E maa [] Pgm(xlt,maa))) & E ksg [] Pgm(xmj,ksg))"),
    4: ("A xmj <> (A vca <> (E maa [] Pgm(vca,maa) & A xlt <> (E kyj [] Pgm(xlt,kyj) & "
        "A usg <> (Qou(xmj) & E lzs [] Pgm(usg,lzs)))) & E lpc [] Pgm(xmj,lpc))"),
}


def plan_for(text):
    return build_domain(cleanse(to_nnf(parse(text))))


def names(vs):
    return sorted(str(v) for v in vs)


def test_build_domain_single_box():
    # No diamond sits next to the box, so it never fires: an empty pool.
    plan = plan_for("E x [] P(x)")
    assert names(plan.pools) == ["x"]
    assert plan.pools[Var("x")] == ()
    assert names(plan.domain) == ["z"]
    plan = plan_for("(E x [] P(x) & A y <> T)")
    assert names(plan.pools[Var("x")]) == ["x^1"]
    assert names(plan.domain) == ["x^1", "z"]


def test_build_domain_nested_boxes():
    assert names(plan_for("E x [] (P(x) & E y [] Q(x,y))").domain) == ["z"]
    # x sits at nesting 0 and y at nesting 1, each next to a diamond.
    plan = plan_for("(A v <> T & E x [] (P(x) & (E y [] Q(x,y) & A u <> T)))")
    assert names(plan.pools[Var("x")]) == ["x^1"]
    assert names(plan.pools[Var("y")]) == ["y^1", "y^2"]
    assert names(plan.domain) == ["x^1", "y^1", "y^2", "z"]


@pytest.mark.parametrize("text, sizes", [
    ("(E x [] P(x) & E y [] A u <> Q(y,u))", {"x": 0, "y": 0}),
    ("A u <> (P(u) & E x [] Q(u,x))", {"x": 0}),
    ("A u <> (A v <> Q(u,v) & E x [] Q(u,x))", {"x": 2}),
    (CHAIN_AD[3], {"ksg": 2, "lpc": 3, "maa": 0}),
])
def test_pool_size_is_nesting_plus_one_next_to_a_diamond_else_empty(text, sizes):
    plan = plan_for(text)
    assert {str(x): len(pool) for x, pool in plan.pools.items()} == sizes


def test_build_domain_no_exists_box():
    assert names(plan_for("A x <> P(x)").domain) == ["z"]


def test_build_domain_rejects_other_fragment():
    with pytest.raises(FragmentError):
        build_domain(parse("A x [] P(x)"))
    with pytest.raises(FragmentError):
        build_domain(parse("E x <> P(x)"))


def test_pools_are_disjoint_and_fresh():
    # x^1 already occurs in the input, so the pool for x must skip it.
    text = "(E x [] P(x) & (E x^1 [] Q(x^1,x^1) & A y <> T))"
    plan = plan_for(text)
    assert all(plan.pools.values())
    flat = [v for pool in plan.pools.values() for v in pool]
    assert len(flat) == len(set(flat))
    assert not set(flat) & all_vars(cleanse(to_nnf(parse(text))))
    assert Var("x", 1) not in plan.pools[Var("x")]


@pytest.mark.parametrize("text", ["A x [] P(x)", "(E x <> P(x) & A y <> Q(y))"])
def test_label_escaping_the_fragment_is_rejected(text):
    # Expanded to a leaf along first children, so the check cannot be dodged
    # by a label that takes the end or the and rule.
    plan = plan_for("E y [] P(y)")
    with pytest.raises(FragmentError, match="escaped"):
        lab = make_label((parse(text),), frozenset(), plan)
        while (app := expand_constant(lab, plan)) is not None:
            lab = app.children[0]


def test_expand_forall_diamond_over_domain():
    plan = plan_for("A y <> P(y)")
    lab = make_label((parse("A y <> P(y)"),), frozenset(), plan)
    app = expand_constant(lab, plan)
    assert app.rule == "br"
    (child,) = app.children
    assert child.gamma == (parse("P(z)"),)
    assert child.vars == {Var("z")}


def test_expand_box_takes_lowest_unused_pool_member():
    plan = plan_for("(E x [] P(x) & A y <> Q(y))")
    lab = make_label((parse("E x [] P(x)"), parse("A y <> Q(y)")),
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
    lab = make_label((parse("E x [] P(x)"), parse("A y3 <> Q(y3)")),
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


def test_label_with_boxes_and_no_diamond_is_a_leaf():
    # Its box bundles hold vacuously at a world with no successor.
    plan = plan_for("(E x [] P(x) & R(v))")
    lab = make_label((parse("E x [] P(x)"), parse("R(v)")), frozenset(), plan)
    assert expand_constant(lab, plan) is None


def test_decide_vacuous_box_constant_domain():
    result = decide(parse("E x [] P(x)"))
    assert result.verdict is Verdict.SAT
    assert result.model.worlds == ("r",)
    assert set(result.model.domain) == {"z"}
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
        "r [br] Γ={A y <> (!P(y) | Q(y)), E x [] P(x)} C={}",
        "  r.0 [or] Γ={(!P(x^1) | Q(x^1)), P(x^1)} C={x^1}",
        "    r.0 [closed: P(x^1) and !P(x^1)] Γ={!P(x^1), P(x^1)} C={x^1}",
        "    r.0 [open leaf] Γ={P(x^1), Q(x^1)} C={x^1}",
        "  r.1 [or] Γ={(!P(z) | Q(z)), P(x^1)} C={x^1,z}",
        "    r.1 [open leaf] Γ={!P(z), P(x^1)} C={x^1,z}",
    )


def depth_sized_plan(theta):
    """The plan with modal-depth-many pool members for every exists-box
    binder, a bound that holds without looking at where the binder sits."""
    used = set(all_vars(theta))
    pools = {}
    for x in sorted(exists_box_vars(theta), key=var_key):
        pool = []
        for _ in range(modal_depth(theta)):
            pool.append(fresh_like(x, used))
            used.add(pool[-1])
        pools[x] = tuple(pool)
    extra = fresh_like(Var("z"), used)
    members = {v for pool in pools.values() for v in pool}
    return ConstantDomainPlan(pools, frozenset(free_vars(theta)) | members | {extra})


def search(theta, plan, budget=None):
    """The constant-domain search on theta under plan: is it SAT?"""
    root = make_label((theta,), frozenset(free_vars(theta)), plan)
    return _Search(plan, budget, False).run(root) is not None


def test_nesting_sized_pools_agree_with_depth_sized_pools():
    gen = FormulaGenerator(71, fragment="eb", variables=("x", "y"))
    verdicts = []
    for _ in range(2000):
        f = And(gen.formula(), to_nnf(Not(gen.formula())))
        theta = cleanse(to_nnf(f))
        result = decide(f)  # checks every SAT model it returns
        assert result.is_sat is search(theta, depth_sized_plan(theta)), f
        verdicts.append(result.verdict)
    assert verdicts.count(Verdict.UNSAT) >= 200


def test_a_pool_one_member_short_is_a_typed_error():
    theta = cleanse(to_nnf(parse("A y <> A y2 <> (E x [] P(x) & A y3 <> Q(y3))")))
    plan = build_domain(theta)
    pool = plan.pools[Var("x")]
    assert search(theta, plan)
    short = ConstantDomainPlan({Var("x"): pool[:-1]}, plan.domain - {pool[-1]})
    with pytest.raises(InternalSolverError, match="witness pool for x exhausted"):
        search(theta, short)


@pytest.mark.parametrize("n, nodes, domain", [(2, 13, 3), (3, 259, 6), (4, 11_111, 10)])
def test_chain_ad_nodes_and_model_domain(n, nodes, domain):
    # Depth-sized pools took 57, 2,380 and 204,205 nodes over 7, 13 and 21 elements.
    result = decide(parse(CHAIN_AD[n]), budget=20_000)
    assert result.is_sat and result.nodes_expanded == nodes
    assert len(result.model.domain) == domain
