"""Property tests over formulas drawn by Hypothesis.

The settings are derandomized and keep no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import pickle

from hypothesis import given, settings, strategies as st

from bfoml import (And, Atom, Bundle, CaptureError, Implies, Mod, Not, Or,
                   Predicate, Quant, Var, cleanse, free_vars, parse, substitute,
                   to_nnf)
from bfoml.formulas import BOT, TOP, var_key
from test_formula_cache import assert_kept_attributes_match

DERANDOMIZED = settings(derandomize=True, deadline=None, database=None, max_examples=150)

P, Q = Predicate("P", 1), Predicate("Q", 2)
VARS = st.sampled_from([Var("x"), Var("y"), Var("z"), Var("x", 1)])
LEAVES = st.one_of(
    st.just(TOP), st.just(BOT),
    st.builds(lambda v: Atom(P, (v,)), VARS),
    st.builds(lambda a, b: Atom(Q, (a, b)), VARS, VARS))
FORMULAS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.builds(Not, sub),
    st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub),
    st.builds(Bundle, st.sampled_from(Quant), st.sampled_from(Mod), VARS, sub)),
    max_leaves=10)


@DERANDOMIZED
@given(FORMULAS)
def test_printing_then_parsing_gives_the_node_back(f):
    g = parse(str(f))
    assert g == f
    assert hash(g) == hash(f)


@DERANDOMIZED
@given(FORMULAS)
def test_kept_attributes_match_references_after_transformations(f):
    nnf = to_nnf(f)
    clean = cleanse(nnf)
    for g in (f, nnf, clean):
        assert_kept_attributes_match(g)
    for target in sorted(free_vars(clean) | {Var("x")}, key=var_key):
        for replacement in (Var("y"), Var("fresh")):
            try:
                assert_kept_attributes_match(substitute(clean, replacement, target))
            except CaptureError:
                pass


@DERANDOMIZED
@given(FORMULAS)
def test_pickle_round_trip_gives_an_equal_node(f):
    loaded = pickle.loads(pickle.dumps(f))
    assert loaded == f
    assert hash(loaded) == hash(f)
    assert str(loaded) == str(f)
