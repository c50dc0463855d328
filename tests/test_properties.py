"""Property tests over formulas drawn by Hypothesis.

The settings are derandomized and keep no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import pickle

from hypothesis import given, reject, settings, strategies as st

from bfoml import (And, Atom, Bundle, CaptureError, Fragment, Implies, Mod, Not, Or,
                   Predicate, Quant, ResourceLimitError, Var, check, classify, cleanse,
                   decide_constant_eb, decide_increasing, enumerate_sat, free_vars, parse,
                   subformulas, substitute, to_nnf)
from bfoml.formulas import BOT, TOP, var_key
from bfoml.fuzz import ModelGenerator
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


@DERANDOMIZED
@given(FORMULAS, st.integers(0, 2**16))
def test_nnf_and_cleanse_agree_with_the_formula_under_check(f, seed):
    models = ModelGenerator(seed)  # P/1 and Q/2, as in FORMULAS
    for _ in range(3):
        m = models.model()
        for world in m.worlds:
            sigma = models.assignment(m, world, free_vars(f))
            value = check(m, world, sigma, f)
            assert check(m, world, sigma, to_nnf(f)) == value
            assert check(m, world, sigma, cleanse(f)) == value


def reference_classify(f):
    """The fragment by definition: read off the bundles of the NNF of f."""
    kinds = {(g.quant, g.mod) for g in subformulas(to_nnf(f)) if isinstance(g, Bundle)}
    if kinds <= {(Quant.EXISTS, Mod.BOX), (Quant.FORALL, Mod.DIAMOND)}:
        return Fragment.EXISTS_BOX
    if kinds <= {(Quant.EXISTS, Mod.DIAMOND), (Quant.FORALL, Mod.BOX)}:
        return Fragment.EXISTS_DIAMOND
    return Fragment.FULL


@DERANDOMIZED
@given(FORMULAS)
def test_classify_judges_the_input_as_its_nnf(f):
    assert classify(f) is reference_classify(f)
    assert classify(Not(f)) is reference_classify(Not(f))


@DERANDOMIZED
@given(FORMULAS)
def test_normalizing_a_clean_nnf_formula_returns_it_unchanged(f):
    g = cleanse(to_nnf(f))
    assert to_nnf(g) is g
    assert cleanse(g) is g


# Agreement between the decision procedures and the bounded oracle.  The
# oracle's models are checked, so a model it finds refutes an UNSAT verdict.
# Two variables keep every drawn formula within the oracle's domain bound.

SMALL_VARS = st.sampled_from([Var("x"), Var("y")])
SMALL_LEAVES = st.one_of(
    st.just(TOP), st.just(BOT),
    st.builds(lambda v: Atom(P, (v,)), SMALL_VARS),
    st.builds(lambda a, b: Atom(Q, (a, b)), SMALL_VARS, SMALL_VARS))
SMALL_FORMULAS = st.recursive(SMALL_LEAVES, lambda sub: st.one_of(
    st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
    st.builds(Bundle, st.sampled_from(Quant), st.sampled_from(Mod), SMALL_VARS, sub)),
    max_leaves=6)
# Exists-box formulas in NNF: literals, & and |, and only E-box and A-diamond bundles.
EXISTS_BOX_FORMULAS = st.recursive(
    st.one_of(SMALL_LEAVES, st.builds(Not, SMALL_LEAVES)), lambda sub: st.one_of(
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Bundle, st.just(Quant.EXISTS), st.just(Mod.BOX), SMALL_VARS, sub),
        st.builds(Bundle, st.just(Quant.FORALL), st.just(Mod.DIAMOND), SMALL_VARS, sub)),
    max_leaves=6)
ORACLE_BUDGET = 20_000


def oracle_model(f, max_worlds, semantics="increasing"):
    """The oracle's model within max_worlds worlds and two elements, or None.

    A search that runs out of budget settles nothing, so the example is
    discarded rather than counted as a pass.
    """
    try:
        return enumerate_sat(f, max_worlds, 2, semantics, budget=ORACLE_BUDGET)
    except ResourceLimitError:
        reject()


@DERANDOMIZED
@given(SMALL_FORMULAS)
def test_an_oracle_model_means_the_increasing_tableau_says_sat(f):
    if oracle_model(f, 2) is not None:
        assert decide_increasing(f).is_sat


@DERANDOMIZED
@given(SMALL_FORMULAS, SMALL_FORMULAS)
def test_an_increasing_unsat_verdict_means_the_oracle_finds_no_model(f, g):
    # A conjunction is more often UNSAT; only those cases run the oracle, at
    # a larger world bound.
    f = And(f, g)
    if not decide_increasing(f).is_sat:
        assert oracle_model(f, 3) is None


@DERANDOMIZED
@given(EXISTS_BOX_FORMULAS)
def test_the_two_tableaux_agree_on_exists_box_formulas(f):
    assert classify(f) is Fragment.EXISTS_BOX
    assert decide_constant_eb(f).verdict is decide_increasing(f).verdict


@DERANDOMIZED
@given(EXISTS_BOX_FORMULAS)
def test_a_constant_oracle_model_means_the_constant_tableau_says_sat(f):
    if oracle_model(f, 2, "constant") is not None:
        assert decide_constant_eb(f).is_sat
