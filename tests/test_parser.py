"""Concrete syntax: grammar coverage and error positions."""

import pytest

from bfoml import ArityMismatchError, ParseError, parse, parse_fo
from bfoml.formulas import And, Atom, Bundle, Mod, Not, Quant, Var


def test_bundle_shape():
    f = parse("E x [] P(x)")
    assert isinstance(f, Bundle)
    assert f.quant is Quant.EXISTS and f.mod is Mod.BOX
    assert f.var == Var("x")
    assert isinstance(f.body, Atom)


def test_conjunction_shape():
    f = parse("(P(x) & !P(x))")
    assert isinstance(f, And)
    assert isinstance(f.right, Not)


def test_whitespace_insensitive():
    assert parse("(E x [] P(x)&A y<>!P(y))") == parse("( E x [] P(x) & A y <> !P(y) )")
    assert parse("E x []\n  P(x)") == parse("E x [] P(x)")


def test_arity_mismatch_names_predicate():
    with pytest.raises(ArityMismatchError) as err:
        parse("(P(x) & P(x,y))")
    assert err.value.predicate == "P"
    assert "arity 2" in str(err.value) and "arity 1" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("(P(x) &\n Q(y)")
    assert err.value.line == 2


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse("P(x) @")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("P(x) Q(y)")


def test_missing_modality():
    with pytest.raises(ParseError):
        parse("E x P(x)")


def test_lowercase_predicate_rejected():
    with pytest.raises(ParseError):
        parse("p(x)")


def test_nullary_atom():
    f = parse("Rain()")
    assert isinstance(f, Atom) and f.pred.arity == 0


def test_predicate_named_like_keyword():
    f = parse("(T(x) & T)")
    assert isinstance(f.left, Atom) and f.left.pred.name == "T"


def test_quantifier_named_predicate():
    f = parse("E(x)")
    assert isinstance(f, Atom) and f.pred.name == "E"


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("!" * 3000 + "P(x)")


@pytest.mark.parametrize("read, text, message", [
    (parse, "P(x,)", "expected a variable, found ')' (line 1, column 5)"),
    (parse, "P(", "expected a variable, found '' (line 1, column 3)"),
    (parse_fo, "EX P . R(x,x)", "expected a variable, found 'P' (line 1, column 4)"),
    (parse_fo, "EX x . ALL x . R(x,x)", "variable x quantified twice (line 1, column 12)"),
    (parse_fo, "EX x . R(x,x) R(x,x)", "unexpected trailing input 'R' (line 1, column 15)"),
])
def test_both_grammars_report_with_the_same_messages(read, text, message):
    with pytest.raises(ParseError) as caught:
        read(text)
    assert str(caught.value) == message
