"""Each distinct tableau label is solved once; the model read off is merged."""

import pytest

from bfoml import (And, Bundle, FragmentError, Mod, Quant, Var, atom, check,
                   decide_constant_eb, decide_increasing, parse, validate)
from bfoml.fuzz import FormulaGenerator

from golden import GOLDEN

# The left disjunct opens r.0 with {P(z)} and then closes r.1; the right one
# meets {P(z)} again at its r.1.  Two different worlds of the search are
# named r.0, so the read-off must not name worlds by their search path.
COLLISION = "((A a <> P(a) & A v <> (Q(v) & !Q(v))) | (A u <> !P(u) & A w <> P(w)))"


def chain_ad(n):
    """A x1 <> (E y1 [] Q(x1,y1) & A x2 <> (E y2 [] Q(x2,y2) & ... & P(x1)))."""
    inner = atom("P", "x1")
    for i in range(n, 0, -1):
        box = Bundle(Quant.EXISTS, Mod.BOX, Var(f"y{i}"), atom("Q", f"x{i}", f"y{i}"))
        inner = Bundle(Quant.FORALL, Mod.DIAMOND, Var(f"x{i}"), And(box, inner))
    return inner


def test_collision_of_path_names_gives_a_checked_model():
    result = decide_increasing(parse(COLLISION), tracing=True)
    assert result.is_sat
    model = result.model
    assert validate(model) is None
    assert check(model, result.root, result.assignment, result.normalized)
    successors = model.successors("r")
    assert len(successors) == 2 and successors[0] != successors[1]
    assert model.facts(successors[0], "P") != model.facts(successors[1], "P")


def test_collision_trace_names_two_search_worlds_r0():
    result = decide_increasing(parse(COLLISION), tracing=True)
    assert result.trace == (
        "r [or] Γ={((A a <> P(a) & A v <> (Q(v) & !Q(v))) | (A u <> !P(u) & A w <> P(w)))} F={z}",
        "  r [br] Γ={A a <> P(a), A v <> (Q(v) & !Q(v))} F={z}",
        "    r.0 [open leaf] Γ={P(z)} F={z}",
        "    r.1 [closed: Q(z) and !Q(z)] Γ={!Q(z), Q(z)} F={z}",
        "  r [br] Γ={A u <> !P(u), A w <> P(w)} F={z}",
        "    r.0 [open leaf] Γ={!P(z)} F={z}",
        "    r.1 [reuses r.0, open] Γ={P(z)} F={z}",
    )


def test_a_repeated_label_writes_one_trace_line_and_spends_one_node():
    result = decide_increasing(parse(COLLISION), tracing=True)
    assert result.trace[-1] == "    r.1 [reuses r.0, open] Γ={P(z)} F={z}"
    assert len(result.trace) == result.nodes_expanded


def test_a_repeated_closed_label_is_not_solved_again():
    # Both disjuncts branch into the same closed child {Q(z) & !Q(z)}.
    result = decide_increasing(parse("((A u <> (Q(u) & !Q(u)) & P(y)) | "
                                     "(A v <> (Q(v) & !Q(v)) & !P(y)))"), tracing=True)
    assert not result.is_sat
    assert "reuses r.0, closed" in result.trace[-1]
    assert len(result.trace) == result.nodes_expanded


def test_deep_chain_fits_a_small_budget():
    # Without the memo, n=10 does not finish within a budget of 3,000,000.
    result = decide_increasing(chain_ad(10), budget=5_000)
    assert result.is_sat
    assert check(result.model, result.root, result.assignment, result.normalized)


def test_tree_completion_keeps_search_path_names():
    result = decide_increasing(parse("(E x <> P(x) & E y <> Q(y,y))"))
    assert result.model.worlds == ("r", "r.0", "r.1")


def count_tree_nodes(node):
    """Worlds of the completion unfolded into a tree."""
    return 1 + sum(count_tree_nodes(child) for child in node.children)


def signature(model, world):
    facts = frozenset((p, ts) for p, ts in model.rho.get(world, {}).items())
    return model.local[world], facts, frozenset(model.successors(world))


@pytest.mark.parametrize("decide, fragment", [(decide_increasing, "full"),
                                              (decide_constant_eb, "eb")],
                         ids=["increasing", "constant"])
def test_no_two_worlds_are_equal(decide, fragment):
    gen = FormulaGenerator(83, fragment=fragment)
    formulas = [parse(text) for _, text, _ in GOLDEN] + [gen.formula() for _ in range(150)]
    formulas += [chain_ad(3)]
    shared = 0
    for f in formulas:
        try:
            result = decide(f)
        except FragmentError:
            continue
        if not result.is_sat:
            continue
        model = result.model
        signatures = [signature(model, w) for w in model.worlds]
        assert len(set(signatures)) == len(signatures), str(f)
        assert check(model, result.root, result.assignment, result.normalized)
        shared += len(model.worlds) < count_tree_nodes(result.tableau)
    assert shared > 0
