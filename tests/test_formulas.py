"""Syntactic core: printing, variables, substitution, NNF, cleansing, measures."""

import pytest

from bfoml import (CaptureError, Fragment, Var, ast_size, atom, classify,
                   cleanse, exists_box_vars, format_formula, free_vars,
                   is_clean, is_nnf, modal_depth, parse, subformulas, substitute,
                   to_nnf)
from bfoml.formulas import boolean_connective_count
from bfoml.fuzz import FormulaGenerator


def fv_names(f):
    return {str(v) for v in free_vars(f)}


def test_free_vars_bundle_binds():
    assert fv_names(parse("(P(x) & E y [] Q(y))")) == {"x"}


def test_free_vars_relation_step():
    assert fv_names(parse("E x <> (P(x) & Q(y))")) == {"y"}


def test_free_vars_closed_sentence():
    assert fv_names(parse("E x [] P(x)")) == set()


def test_substitute_free_occurrence():
    assert substitute(parse("P(x)"), Var("y"), Var("x")) == parse("P(y)")


def test_substitute_bound_untouched():
    f = parse("E x [] P(x)")
    assert substitute(f, Var("y"), Var("x")) == f


def test_substitute_capture_detected():
    with pytest.raises(CaptureError):
        substitute(parse("E y [] P(x)"), Var("y"), Var("x"))


def test_substitute_free_var_bookkeeping():
    gen = FormulaGenerator(7)
    pairs = 0
    while pairs < 200:
        f = gen.formula()
        fvs = sorted(free_vars(f), key=str)
        if not fvs:
            continue
        x = fvs[0]
        y = Var("w9")
        g = substitute(f, y, x)
        assert free_vars(g) == (free_vars(f) - {x}) | {y}
        pairs += 1


def test_nnf_bundle_dual():
    assert to_nnf(parse("!E x [] P(x)")) == parse("A x <> !P(x)")


def test_nnf_de_morgan():
    assert to_nnf(parse("!(P(x) & Q(y))")) == parse("(!P(x) | !Q(y))")


def test_nnf_double_dual():
    assert to_nnf(parse("!A x <> !P(x)")) == parse("E x [] P(x)")


def test_nnf_implies_eliminated():
    assert to_nnf(parse("(P(x) -> Q(y))")) == parse("(!P(x) | Q(y))")


def test_nnf_top_bottom():
    assert to_nnf(parse("!T")) == parse("F")
    assert to_nnf(parse("!F")) == parse("T")


def test_nnf_idempotent_on_corpus():
    gen = FormulaGenerator(11)
    for _ in range(300):
        f = gen.formula()
        g = to_nnf(f)
        assert is_nnf(g)
        assert to_nnf(g) == g


def test_cleanse_or_of_same_binder():
    assert cleanse(parse("(E x [] P(x) | E x [] Q(x))")) == \
        parse("(E x [] P(x) | E x^1 [] Q(x^1))")


def test_cleanse_free_bound_conflict():
    assert cleanse(parse("(P(x) & E x [] Q(x))")) == parse("(P(x) & E x^1 [] Q(x^1))")


def test_cleanse_keeps_clean_input():
    f = parse("(P(x) & E y [] Q(y))")
    assert cleanse(f) == f


def test_cleanse_idempotent_and_clean_on_corpus():
    gen = FormulaGenerator(13)
    for _ in range(300):
        raw = gen.raw(2, 6)
        g = cleanse(raw)
        assert is_clean(g)
        assert cleanse(g) == g
        assert free_vars(g) == free_vars(raw)


def test_modal_depth():
    assert modal_depth(parse("P(x)")) == 0
    assert modal_depth(parse("E x [] (P(x) & E y [] Q(x,y))")) == 2


def test_exists_box_vars():
    assert exists_box_vars(parse("E x [] P(x)")) == {Var("x")}
    assert exists_box_vars(parse("A x <> P(x)")) == frozenset()
    assert exists_box_vars(parse("E x [] E y [] Q(x,y)")) == {Var("x"), Var("y")}


def test_classify():
    assert classify(parse("(E x [] P(x) & A y <> Q(y))")) is Fragment.EXISTS_BOX
    assert classify(parse("A x [] P(x)")) is Fragment.EXISTS_DIAMOND
    assert classify(parse("(E x [] P(x) & A y [] Q(y))")) is Fragment.FULL


def test_classify_sees_through_negation():
    # !Ex[] is an Ax<> after NNF, so the whole thing stays exists-box.
    assert classify(parse("!E x [] P(x)")) is Fragment.EXISTS_BOX


def test_classify_bundle_free():
    assert classify(parse("(P(x) & !Q(x,y))")) is Fragment.EXISTS_BOX


def test_ast_size_and_connectives():
    f = parse("(E x [] P(x) & A y <> !P(y))")
    assert boolean_connective_count(f) == 1
    # and + (bundle 2 + atom 2) + (bundle 2 + not 1 + atom 2)
    assert ast_size(f) == 1 + 4 + 5


def test_format_round_trip_handwritten():
    for text in ["T", "F", "P(x,y)", "!P(x)", "(P(x) & Q(y))",
                 "(P(x) | Q(y))", "(P(x) -> Q(y))", "E x [] P(x)",
                 "A y2 <> !Q(y2,x^3)"]:
        f = parse(text)
        assert parse(format_formula(f)) == f


def test_format_round_trip_on_corpus():
    gen = FormulaGenerator(17)
    for _ in range(500):
        f = gen.formula()
        assert parse(format_formula(f)) == f


def test_var_rendering_with_index():
    assert str(Var("x")) == "x"
    assert str(Var("x", 3)) == "x^3"
    assert parse("P(x^3)") == atom("P", Var("x", 3))


@pytest.mark.parametrize("walk", [
    to_nnf, classify, is_nnf, is_clean, exists_box_vars, ast_size,
    lambda f: list(subformulas(f)),
])
def test_a_non_formula_is_a_type_error(walk):
    with pytest.raises(TypeError, match="not a formula: 42"):
        walk(42)
