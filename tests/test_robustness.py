"""Deep formulas: built in code past the recursion limit, or parsed as deep as the parser reads."""

import pytest

from bfoml import parse
from bfoml.cli import main
from bfoml.fo import FOSentence, R_PRED, parse_fo, translate_sentence
from bfoml.formulas import (Atom, Bundle, Fragment, Mod, Not, Predicate, Quant, Var,
                            all_vars, ast_size, bound_vars, boolean_connective_count,
                            classify, cleanse, exists_box_vars, free_vars, is_clean,
                            is_nnf, modal_depth, subformulas, substitute, to_nnf)


def deep_negations(depth=3000):
    """E y [] !!...!P(x) with depth nested negations, built in code."""
    f = Atom(Predicate("P", 1), (Var("x"),))
    for _ in range(depth):
        f = Not(f)
    return Bundle(Quant.EXISTS, Mod.BOX, Var("y"), f)


def test_deep_formula_built_in_code_answers_without_recursion():
    # 3,000 nested negations: about 4.5 MB of keys, far past the recursion limit.
    f = Atom(Predicate("P", 1), (Var("x"),))
    for _ in range(3000):
        f = Not(f)
    f = Bundle(Quant.EXISTS, Mod.BOX, Var("y"), f)
    text = str(f)
    assert text == "E y [] " + "!" * 3000 + "P(x)"
    assert hash(f) == hash(text)
    assert free_vars(f) == {Var("x")}
    assert bound_vars(f) == {Var("y")}
    assert all_vars(f) == {Var("x"), Var("y")}
    assert modal_depth(f) == 1
    assert boolean_connective_count(f) == 0


def test_deep_formula_built_in_code_walks_without_recursion():
    f = deep_negations()
    assert classify(f) is Fragment.EXISTS_BOX
    assert is_clean(f)
    assert exists_box_vars(f) == {Var("y")}
    assert ast_size(f) == 2 + 3000 + 2
    assert len(list(subformulas(f))) == 3002


def test_deep_fo_matrix_built_in_code_constructs():
    matrix = Atom(R_PRED, (Var("x"), Var("x")))
    for _ in range(3000):
        matrix = Not(matrix)
    sentence = FOSentence(((Quant.EXISTS, Var("x")),), matrix)
    assert sentence.matrix is matrix


# Each rewrite recurses once per nesting level, so it reaches as deep as the
# parser: about 980 nested binary connectives or 490 nested bundles.
DEEP_TEXTS = {
    "conjunctions": "(P(x) & " * 600 + "P(x)" + ")" * 600,
    "negated-conjunctions": "!(P(x) & " * 450 + "P(x)" + ")" * 450,
    "implications": "(P(x) -> " * 600 + "P(x)" + ")" * 600,
    "bundles": "E y <> " * 450 + "Q(x,y)",
}


@pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS.keys())
def test_rewrites_reach_as_deep_as_the_parser(text):
    f = parse(text)
    g = cleanse(to_nnf(f))
    assert is_nnf(g) and is_clean(g)
    assert to_nnf(g) is g and cleanse(g) is g
    assert free_vars(substitute(f, Var("z"), Var("x"))) == {Var("z")}


@pytest.mark.parametrize("command", ["nnf", "clean"])
@pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS.keys())
def test_cli_rewrites_reach_as_deep_as_the_parser(command, text, capsys):
    assert main([command, text]) == 0
    rewrite = to_nnf if command == "nnf" else cleanse
    assert capsys.readouterr().out == f"{rewrite(parse(text))}\n"


def test_fo_translation_reaches_deep_matrices():
    sentence = parse_fo("EX x . " + "(R(x,x) & " * 450 + "R(x,x)" + ")" * 450)
    assert classify(translate_sentence(sentence)) is Fragment.EXISTS_DIAMOND
