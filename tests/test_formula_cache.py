"""Derived attributes kept on formula nodes, and the checks that rely on them."""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys

import pytest

from bfoml import (InternalSolverError, InvalidModelError, KripkeModel, Var,
                   cleanse, decide_constant_eb, decide_increasing, parse, substitute, to_nnf)
from bfoml import formulas, tableau_common, tableau_constant, tableau_increasing
from bfoml.formulas import (And, Atom, Bot, Bundle, Implies, Not, Or, Top,
                            bound_vars, boolean_connective_count, formula_key,
                            free_vars, modal_depth, subformulas)
from bfoml.fuzz import FormulaGenerator
from bfoml.kripke import _Evaluator
from bfoml.tableau_common import Label, assert_measure_decreases


# From-scratch references: plain recursions that read no kept attribute.

def ref_text(f):
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Atom):
        return f"{f.pred.name}({','.join(str(a) for a in f.args)})"
    if isinstance(f, Not):
        return "!" + ref_text(f.body)
    if isinstance(f, Bundle):
        return f"{f.quant.value} {f.var} {f.mod.value} {ref_text(f.body)}"
    op = {And: "&", Or: "|", Implies: "->"}[type(f)]
    return f"({ref_text(f.left)} {op} {ref_text(f.right)})"


def ref_free(f):
    if isinstance(f, Atom):
        return set(f.args)
    if isinstance(f, (Top, Bot)):
        return set()
    if isinstance(f, Not):
        return ref_free(f.body)
    if isinstance(f, Bundle):
        return ref_free(f.body) - {f.var}
    return ref_free(f.left) | ref_free(f.right)


def ref_bound(f):
    return {g.var for g in subformulas(f) if isinstance(g, Bundle)}


def ref_depth(f):
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    if isinstance(f, Not):
        return ref_depth(f.body)
    if isinstance(f, Bundle):
        return 1 + ref_depth(f.body)
    return max(ref_depth(f.left), ref_depth(f.right))


def ref_connectives(f):
    return sum(isinstance(g, (And, Or, Implies)) for g in subformulas(f))


def assert_kept_attributes_match(f):
    for g in subformulas(f):
        assert formula_key(g) == ref_text(g)
        assert free_vars(g) == ref_free(g)
        assert bound_vars(g) == ref_bound(g)
        assert modal_depth(g) == ref_depth(g)
        assert boolean_connective_count(g) == ref_connectives(g)
        # A node hashes by its key, which its fields determine.
        assert hash(g) == hash(ref_text(g))


def corpus():
    for fragment in ("full", "eb", "ed"):
        gen = FormulaGenerator(20261018, fragment)
        for _ in range(40):
            yield gen.raw()


def test_kept_attributes_match_references_after_each_transformation():
    for raw in corpus():
        nnf = to_nnf(Not(raw))
        clean = cleanse(nnf)
        for f in (raw, nnf, clean):
            assert_kept_attributes_match(f)
        for x in sorted(free_vars(clean) | {Var("x")}, key=formulas.var_key):
            for y in (Var("y"), Var("fresh")):
                try:
                    assert_kept_attributes_match(substitute(clean, y, x))
                except formulas.CaptureError:
                    pass
        # Asked again, the kept values are returned as they are.
        assert formula_key(clean) is formula_key(clean)
        assert free_vars(clean) is free_vars(clean)


def test_substitute_shares_subtrees_without_the_target():
    f = parse("(E y [] Q(x,y) & (P(z) | E x <> P(x)))")
    assert substitute(f, Var("w"), Var("v")) is f
    g = substitute(f, Var("w"), Var("x"))
    assert g == parse("(E y [] Q(w,y) & (P(z) | E x <> P(x)))")
    assert g.right is f.right
    bundle = parse("E x <> (P(x) & Q(y))")
    assert substitute(bundle, Var("w"), Var("x")) is bundle


def test_kept_attributes_do_not_show():
    f = parse("(E x [] P(x) & !Q(x,y))")
    before = (repr(f), dataclasses.asdict(f), [fl.name for fl in dataclasses.fields(f)])
    copy = parse("(E x [] P(x) & !Q(x,y))")
    assert hash(f) == hash(copy)
    assert_kept_attributes_match(f)
    assert (repr(f), dataclasses.asdict(f), [fl.name for fl in dataclasses.fields(f)]) == before
    assert f == copy and repr(f) == repr(copy)


KEPT = ("_key", "_free_vars", "_bound_vars", "_modal_depth", "_connectives")


@pytest.mark.parametrize("text", ["(P(x) & Q(x,y))", "(P(x) | Q(x,y))", "(P(x) -> Q(x,y))"])
def test_binary_nodes_refuse_every_assignment(text):
    # And, Or and Implies inherit their dataclass from Binary.
    f = parse(text)
    for name in ("left", "_key", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, f)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(f, name)
    assert repr(f).startswith(f"{type(f).__name__}(left=")


def test_pickle_carries_fields_only():
    f = parse("(E x [] P(x) & A y <> !Q(x,y))")
    hash(f)
    formula_key(f)
    payload = pickle.dumps(f)
    for name in KEPT:
        assert name.encode() not in payload
    loaded = pickle.loads(payload)
    assert loaded == f and loaded is not f
    fresh = parse("(E x [] P(x) & A y <> !Q(x,y))")
    assert {n: getattr(loaded, n) for n in KEPT} == {n: getattr(fresh, n) for n in KEPT}
    assert hash(loaded) == hash(parse("(E x [] P(x) & A y <> !Q(x,y))"))


def test_pickled_node_hashes_like_a_fresh_one_in_another_process():
    text = "(E x [] P(x) & A y <> !Q(x,y))"
    f = parse(text)
    hash(f)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import pickle, sys\n"
              "from bfoml import parse\n"
              "f = pickle.loads(sys.stdin.buffer.read())\n"
              f"print(hash(f) == hash(parse({text!r})) and f == parse({text!r}))\n")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(f),
                          capture_output=True, env=env, timeout=60, check=True)
    assert done.stdout.decode().strip() == "True"


def test_var_hash_is_the_dataclass_hash_of_its_fields():
    for v in (Var("x"), Var("x", 3), Var("w1", 0)):
        assert hash(v) == hash((v.name, v.index))
        assert [fl.name for fl in dataclasses.fields(v)] == ["name", "index"]
        assert dataclasses.asdict(v) == {"name": v.name, "index": v.index}
        assert v == Var(v.name, v.index) and repr(v) == repr(Var(v.name, v.index))


def test_pickled_var_carries_fields_only_and_rehashes_in_another_process():
    v = Var("x", 3)
    payload = pickle.dumps(v)
    assert b"_hash" not in payload
    assert pickle.loads(payload) == v
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import pickle, sys\n"
              "from bfoml import Var\n"
              "v = pickle.loads(sys.stdin.buffer.read())\n"
              "print(hash(v) == hash(Var('x', 3)) == hash(('x', 3)) and v == Var('x', 3))\n")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], input=payload,
                          capture_output=True, env=env, timeout=60, check=True)
    assert done.stdout.decode().strip() == "True"


def test_second_key_renders_nothing(monkeypatch):
    f = parse("E x [] (P(x) | !Q(x,y))")
    calls = []
    real = formulas.format_formula
    monkeypatch.setattr(formulas, "format_formula", lambda g: calls.append(g) or real(g))
    first = formula_key(f)
    calls.clear()
    assert formula_key(f) is first
    assert calls == []
    assert str(f) is first


def test_measure_check_stays_on():
    tracked = frozenset({Var("x")})
    premise = Label((parse("(P(x) | Q(x))"),), tracked)
    child = Label((parse("P(x)"),), tracked)
    assert_measure_decreases(premise, child)
    with pytest.raises(InternalSolverError, match="failed to decrease"):
        assert_measure_decreases(child, premise)


def test_label_refuses_a_conjunction():
    # Label constructors split every and, so none reaches a rule.
    with pytest.raises(InternalSolverError, match="outside the NNF grammar"):
        Label((parse("(P(x) & Q(x))"),), frozenset({Var("x")}))


# bench/workloads.chain_ad(random.Random(1), 3): thousands of labels.
CHAIN_AD_3 = ("A xmj <> (A vca <> (E lpc [] Pgm(vca,lpc) & A xlt <> (Qou(xmj) & "
              "E maa [] Pgm(xlt,maa))) & E ksg [] Pgm(xmj,ksg))")


def test_each_label_is_measured_once(monkeypatch):
    built, measured = [], []
    init, measure = Label.__init__, tableau_common.label_measure
    monkeypatch.setattr(Label, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    monkeypatch.setattr(tableau_common, "label_measure",
                        lambda gamma: measured.append(1) or measure(gamma))
    assert decide_constant_eb(parse(CHAIN_AD_3)).is_sat
    assert len(built) > 1000
    assert len(measured) == len(built)


def test_label_hashes_its_formulas_once(monkeypatch):
    gamma, tracked = (parse("(P(x) | Q(x))"), parse("E y [] P(y)")), frozenset({Var("x")})
    label, expected = Label(gamma, tracked), hash((gamma, tracked))
    hashed = []
    for cls in (formulas.Or, formulas.Bundle):
        monkeypatch.setattr(cls, "__hash__", lambda f: hashed.append(f) or hash(f._key))
    solved = {label: None}
    assert hash(label) == expected and label in solved
    assert hashed == []


def record_memo_calls(monkeypatch, module):
    """Log the key of each substitute and branch call that module's search makes."""
    subs, branches = [], []
    real_substitute, real_branch = module.substitute, module.branch

    def substitute(body, y, x):
        subs.append((body, y, x))
        return real_substitute(body, y, x)

    def branch(label, bundles, memo, **plan):
        branches.append((tuple(f for f in label.gamma if isinstance(f, Bundle)), label.vars))
        return real_branch(label, bundles, memo, **plan)

    monkeypatch.setattr(module, "substitute", substitute)
    monkeypatch.setattr(module, "branch", branch)
    return subs, branches


def test_search_substitutes_and_branches_once_per_key(monkeypatch):
    subs, branches = record_memo_calls(monkeypatch, tableau_constant)
    result = decide_constant_eb(parse(CHAIN_AD_3))
    assert result.is_sat and result.nodes_expanded == 2380
    assert len(subs) == len(set(subs)) > 100
    assert len(branches) == len(set(branches)) > 100


@pytest.mark.parametrize("module, decide", [(tableau_constant, decide_constant_eb),
                                            (tableau_increasing, decide_increasing)])
def test_no_memo_outlives_its_decision(monkeypatch, module, decide):
    subs, branches = record_memo_calls(monkeypatch, module)
    f = parse(CHAIN_AD_3)
    first = decide(f, tracing=True)
    calls = (len(subs), len(branches))
    assert min(calls) > 0
    second = decide(f, tracing=True)
    assert (len(subs), len(branches)) == (2 * calls[0], 2 * calls[1])
    assert second.trace == first.trace and second.model.dumps() == first.model.dumps()


@pytest.mark.parametrize("rewrite", [cleanse, lambda f: substitute(f, Var("w"), Var("y"))],
                         ids=["cleanse", "substitute"])
def test_rewrites_leave_no_reference_cycle(rewrite):
    # A binder clash, so cleanse renames, and a free y under binders, so
    # substitute rebuilds nodes.
    f = parse("(E x [] Q(x,y) & A x <> (P(x) | E z [] Q(z,y)))")
    gc.collect()
    gc.disable()
    try:
        assert rewrite(f) is not f
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluator_rejects_a_shrinking_edge():
    # The evaluator trusts a model's edges to keep its domain: a model whose
    # domain shrinks along an edge cannot be built.
    with pytest.raises(InvalidModelError) as info:
        KripkeModel.create(
            worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
            local={"w": {"a", "b"}, "v": {"a"}}, rho={"v": {"P": {("a",)}}})
    assert info.value.violation.code == "monotonicity"
    assert info.value.violation.subject == "(w,v)"
    grown = KripkeModel.create(
        worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
        local={"w": {"a"}, "v": {"a", "b"}}, rho={"v": {"P": {("a",)}}})
    assert _Evaluator(grown).eval("w", {}, parse("E x <> P(x)"))
