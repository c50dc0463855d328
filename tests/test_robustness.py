"""Formulas built in code, too deep for a recursive walk."""

from bfoml.formulas import (Atom, Bundle, Mod, Not, Predicate, Quant, Var,
                            all_vars, bound_vars, boolean_connective_count,
                            free_vars, modal_depth)


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
