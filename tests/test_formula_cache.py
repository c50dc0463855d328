"""Derived attributes kept on formula nodes, and the checks that rely on them."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from bfoml import (InternalSolverError, InvalidModelError, KripkeModel, Var,
                   check, cleanse, parse, substitute, to_nnf)
from bfoml import formulas
from bfoml.formulas import (And, Atom, Bot, Bundle, Implies, Not, Or, Top,
                            bound_vars, boolean_connective_count, formula_key,
                            free_vars, modal_depth, subformulas)
from bfoml.fuzz import FormulaGenerator
from bfoml.kripke import _Evaluator
from bfoml.tableau_common import assert_measure_decreases, label_measure


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
        # The value a frozen dataclass generates from its fields.
        assert hash(g) == hash(tuple(getattr(g, n) for n in g.__dataclass_fields__))


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


def test_pickle_carries_fields_only():
    f = parse("(E x [] P(x) & A y <> !Q(x,y))")
    hash(f)
    formula_key(f)
    loaded = pickle.loads(pickle.dumps(f))
    assert loaded == f and loaded is not f
    assert set(vars(loaded)) == {"left", "right"}
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
    premise = (parse("(P(x) & Q(x))"),)
    child = (parse("P(x)"), parse("Q(x)"))
    assert_measure_decreases(label_measure(premise), child)
    with pytest.raises(InternalSolverError, match="failed to decrease"):
        assert_measure_decreases(label_measure(child), premise)


def test_evaluator_rejects_a_shrinking_edge():
    model = KripkeModel.create(
        worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
        local={"w": {"a", "b"}, "v": {"a"}}, rho={"v": {"P": {("a",)}}})
    with pytest.raises(InternalSolverError, match="shrinks on the edge from w to v"):
        _Evaluator(model).eval("w", {}, parse("E x <> P(x)"))
    with pytest.raises(InvalidModelError):
        check(model, "w", {}, parse("E x <> P(x)"))
    grown = KripkeModel.create(
        worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
        local={"w": {"a"}, "v": {"a", "b"}}, rho={"v": {"P": {("a",)}}})
    assert _Evaluator(grown).eval("w", {}, parse("E x <> P(x)"))
