"""Deep formulas: built in code past the recursion limit, or parsed as deep as the parser reads."""

import pytest

from bfoml import (KripkeModel, ResourceLimitError, check, decide_constant_eb,
                   decide_increasing, enumerate_sat, parse)
from bfoml import cli
from bfoml.cli import main
from bfoml.fo import FOSentence, R_PRED, parse_fo, translate_sentence
from bfoml.formulas import (And, Atom, Bundle, Fragment, Mod, Not, Or, Predicate, Quant, Var,
                            all_vars, ast_size, bound_vars, boolean_connective_count,
                            classify, cleanse, exists_box_vars, free_vars, is_clean,
                            is_nnf, modal_depth, subformulas, substitute, to_nnf)
from bfoml.tableau_common import canonical_gamma

from test_cli import assert_one_line_error


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


def test_deep_formulas_compare_without_recursion():
    assert deep_negations() == deep_negations()
    f = Atom(Predicate("P", 1), (Var("u"),))
    for _ in range(3000):
        f = Not(f)
    assert deep_negations() != Bundle(Quant.EXISTS, Mod.BOX, Var("y"), f)


def test_deep_formula_built_in_code_walks_without_recursion():
    f = deep_negations()
    assert classify(f) is Fragment.EXISTS_BOX
    assert is_clean(f)
    assert exists_box_vars(f) == {Var("y")}
    assert ast_size(f) == 2 + 3000 + 2
    assert len(list(subformulas(f))) == 3002


def test_nnf_walks_a_negation_chain_built_in_code_without_recursion():
    # 3,000 negations cancel in pairs.
    assert to_nnf(deep_negations()) == parse("E y [] P(x)")
    assert decide_increasing(deep_negations()).is_sat


def test_cleanse_walks_a_negation_chain_built_in_code_without_recursion():
    f = deep_negations()
    assert cleanse(f) is f
    # A clashing binder above the chain is renamed down to the atom under it.
    y = Var("y")
    chain = Atom(Predicate("P", 1), (y,))
    for _ in range(3000):
        chain = Not(chain)
    g = cleanse(And(Bundle(Quant.EXISTS, Mod.BOX, y, Atom(Predicate("P", 1), (y,))),
                    Bundle(Quant.EXISTS, Mod.BOX, y, chain)))
    assert str(g) == "(E y [] P(y) & E y^1 [] " + "!" * 3000 + "P(y^1))"
    assert is_clean(g)


def test_check_walks_a_negation_chain_built_in_code_without_recursion():
    # E y [] over one successor where P(x) holds: the chain's parity decides.
    model = KripkeModel.create(["w0", "w1"], ["x"], [("w0", "w1")],
                               {"w0": {"x"}, "w1": {"x"}}, {"w1": {"P": {("x",)}}})
    sigma = {Var("x"): "x"}
    assert check(model, "w0", sigma, deep_negations(3000))
    assert not check(model, "w0", sigma, deep_negations(3001))


def test_oracle_answers_on_a_negation_chain_built_in_code():
    result = enumerate_sat(deep_negations(), 1, 1)
    assert result is not None and result.model.worlds == ("w0",)


def test_a_label_splits_a_conjunction_chain_built_in_code_without_recursion():
    # 1,500 nested conjunctions, past the recursion limit.
    f = Atom(Predicate("P", 0), ())
    for i in range(1500):
        f = And(Atom(Predicate(f"Q{i}", 0), ()), f)
    gamma = canonical_gamma((f,))
    assert len(gamma) == 1501
    assert all(isinstance(g, Atom) for g in gamma)


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


# 600 disjunctions under left-nested conjunctions: the parser reads it, and
# the search takes two Python frames per open or-choice.
WIDE_OR_CHAIN = ("(" * 599 + "(P0(x) | Q0(x))"
                 + "".join(f" & (P{i}(x) | Q{i}(x)))" for i in range(1, 600)))


def test_wide_or_chain_is_a_resource_limit():
    with pytest.raises(ResourceLimitError, match="nested too deeply"):
        decide_increasing(parse(WIDE_OR_CHAIN))


def test_cli_wide_or_chain_is_a_one_line_error(capsys):
    assert_one_line_error(capsys, ["sat", "--semantics", "constant", WIDE_OR_CHAIN],
                          "tableau search nested too deeply")


# The oracle grounds the conjuncts of a top-level conjunction one at a time,
# so a long conjunction chain is answered, as the tableau answers it by
# splitting it into a label.  Inside a conjunct, grounding and the
# propositional search still recurse once per nesting level, so a long
# disjunction chain is too deep for them.
ORACLE_TOO_DEEP = "bounded model search nested too deeply; result is inconclusive"


def nullary_chain(connective, n):
    """P0 c (P1 c (... P{n-1})) over nullary atoms, right-nested, built in code."""
    f = Atom(Predicate(f"P{n - 1}", 0), ())
    for i in range(n - 2, -1, -1):
        f = connective(Atom(Predicate(f"P{i}", 0), ()), f)
    return f


def chain_text(op, n):
    """(P0(x) op (P1(x) op (... P{n-1}(x)))) as text."""
    return "".join(f"(P{i}(x) {op} " for i in range(n - 1)) + f"P{n - 1}(x)" + ")" * (n - 1)


def test_oracle_answers_a_long_conjunction_built_in_code():
    f = nullary_chain(And, 500)
    result = enumerate_sat(f, 1, 1)
    assert result is not None and check(result.model, result.root, {}, f)
    assert decide_increasing(f).is_sat


def test_cli_oracle_answers_a_long_conjunction(capsys):
    assert main(["oracle", chain_text("&", 700)]) == 10
    assert capsys.readouterr().out.startswith("SAT")


def test_oracle_on_a_long_disjunction_built_in_code_is_a_resource_limit():
    with pytest.raises(ResourceLimitError, match=ORACLE_TOO_DEEP):
        enumerate_sat(nullary_chain(Or, 700), 1, 1)


# Normalization recurses once per binary nesting level, so a chain built in
# code past the recursion limit is a resource limit at every solver entry.
NORMALIZE_TOO_DEEP = "formula nested too deeply to normalize"
ENTRIES = {"increasing": decide_increasing, "constant": decide_constant_eb,
           "oracle": lambda f: enumerate_sat(f, 1, 1)}


@pytest.mark.parametrize("connective", [And, Or])
@pytest.mark.parametrize("decide", ENTRIES.values(), ids=ENTRIES.keys())
def test_chain_too_deep_to_normalize_is_a_resource_limit(decide, connective):
    with pytest.raises(ResourceLimitError, match=NORMALIZE_TOO_DEEP):
        decide(nullary_chain(connective, 3000))


@pytest.mark.parametrize("argv", [["sat", "P"], ["sat", "--semantics", "constant", "P"],
                                  ["oracle", "P"], ["nnf", "P"], ["clean", "P"]])
def test_cli_chain_too_deep_to_normalize_is_a_one_line_error(argv, monkeypatch, capsys):
    # The parser stops near the recursion limit, so the chain is built in code.
    monkeypatch.setattr(cli, "parse", lambda text: nullary_chain(And, 3000))
    assert_one_line_error(capsys, argv, NORMALIZE_TOO_DEEP)


def test_cli_oracle_on_a_long_disjunction_is_a_one_line_error(capsys):
    assert_one_line_error(capsys, ["oracle", chain_text("|", 700)], ORACLE_TOO_DEEP)
