"""Models: the rules checked when one is built, the satisfaction relation, and its
error paths."""

import json
import pickle

import pytest

from bfoml import (InvalidModelError, IrrelevantAssignmentError, KripkeModel,
                   ModelFormatError, ModelViolation, UnboundVariableError,
                   UnknownWorldError, Var, check, decide_increasing, model_loads,
                   parse, validate)
from bfoml.formulas import And, Bundle, Mod, Not, Quant, free_vars
from bfoml.fuzz import FormulaGenerator, ModelGenerator


def single_world(facts=()):
    return KripkeModel.create(
        worlds=["w"], domain=["a"], edges=[],
        local={"w": {"a"}}, rho={"w": {"P": set(facts)}})


def test_validate_ok():
    assert validate(single_world()) is None


def test_validate_monotonicity():
    with pytest.raises(InvalidModelError) as info:
        KripkeModel.create(
            worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
            local={"w": {"a", "b"}, "v": {"a"}}, rho={})
    assert info.value.violation.code == "monotonicity"
    assert info.value.violation.subject == "(w,v)"


def test_validate_empty_local_domain():
    with pytest.raises(InvalidModelError) as info:
        KripkeModel.create(worlds=["w"], domain=["a"], edges=[],
                           local={"w": set()}, rho={})
    assert info.value.violation.code == "empty-local-domain"
    assert info.value.violation.subject == "w"


def test_validate_arity_consistency():
    with pytest.raises(InvalidModelError) as info:
        KripkeModel.create(worlds=["w"], domain=["a"], edges=[],
                           local={"w": {"a"}},
                           rho={"w": {"P": {("a",), ("a", "a")}}})
    assert info.value.violation.code == "arity-inconsistent"
    assert info.value.violation.subject == "P"


# One broken model per violation that validate reports, in its check order.
BROKEN = [
    (dict(worlds=[]), "empty-worlds", "-", "a model needs at least one world"),
    (dict(domain=[]), "empty-domain", "-", "a model needs a nonempty domain"),
    (dict(local={"w": {"a"}, "v": {"a"}, "z": {"a"}}), "unknown-world", "z",
     "local domain given for unknown world"),
    (dict(local={"w": {"a"}}), "missing-local", "v", "world has no local domain"),
    (dict(local={"w": {"a", "c"}, "v": {"a"}}), "local-outside-domain", "w",
     "local domain contains unknown elements ['c']"),
    (dict(local={"w": {"a"}, "v": set()}), "empty-local-domain", "v",
     "local domain is empty"),
    (dict(edges=[("w", "z")]), "unknown-world", "(w,z)", "edge endpoint is not a world"),
    (dict(local={"w": {"a", "b"}, "v": {"a"}}), "monotonicity", "(w,v)",
     "local domain must not shrink along an edge; lost ['b']"),
    (dict(rho={"y": {"P": {("a",)}}}), "unknown-world", "y",
     "interpretation given for unknown world"),
    (dict(rho={"v": {"P": {("a",)}}, "w": {"P": {("a", "b")}}}), "arity-inconsistent", "P",
     "predicate interpreted at arities 1 and 2"),
    (dict(rho={"v": {"Q": {("a", "c")}}}), "tuple-outside-domain", "(v,Q)",
     "tuple element 'c' is not in the domain"),
]


@pytest.mark.parametrize("broken, code, subject, message", BROKEN,
                         ids=[f"{code}-{subject}" for _, code, subject, _ in BROKEN])
def test_building_a_model_that_breaks_a_rule_raises(broken, code, subject, message):
    parts = dict(worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
                 local={"w": {"a"}, "v": {"a", "b"}}, rho={})
    parts.update(broken)
    with pytest.raises(InvalidModelError) as info:
        KripkeModel.create(**parts)
    assert info.value.violation == ModelViolation(code, subject, message)
    assert str(info.value) == f"invalid model: {code} at {subject}: {message}"
    with pytest.raises(InvalidModelError) as info:
        model_loads(json.dumps(parts, default=sorted))
    assert info.value.violation == ModelViolation(code, subject, message)


def test_local_and_rho_are_read_only():
    m = single_world(facts=[("a",)])
    with pytest.raises(TypeError):
        m.local["w"] = frozenset()
    with pytest.raises(TypeError):
        m.rho["w"] = {}
    with pytest.raises(TypeError):
        m.rho["w"]["P"] = frozenset()
    assert m.local["w"] == frozenset({"a"}) and m.facts("w", "P") == {("a",)}


def test_a_model_and_a_decision_survive_a_pickle_round_trip():
    m = KripkeModel.create(
        worlds=["w0", "w1"], domain=["a", "b"], edges=[("w0", "w1")],
        local={"w0": {"a"}, "w1": {"a", "b"}},
        rho={"w1": {"P": {("b",)}, "Q": {("a", "b")}}})
    again = pickle.loads(pickle.dumps(m))
    assert again == m and again.dumps() == m.dumps()
    assert again.successors("w0") == ("w1",)
    result = decide_increasing(parse("(E x [] P(x) & A y <> Q(y))"))
    assert result.is_sat
    assert pickle.loads(pickle.dumps(result)) == result


def test_check_atomic():
    m = single_world(facts=[("a",)])
    assert check(m, "w", {Var("x"): "a"}, parse("P(x)")) is True
    assert check(m, "w", {Var("x"): "a"}, parse("!P(x)")) is False


def test_check_vacuous_box_vs_diamond():
    m = single_world()
    assert check(m, "w", {}, parse("E x [] P(x)")) is True
    assert check(m, "w", {}, parse("E x <> P(x)")) is False


def test_check_rejects_invalid_model():
    # No invalid model reaches check: building one raises.
    with pytest.raises(InvalidModelError) as info:
        KripkeModel.create(worlds=["w"], domain=["a"], edges=[],
                           local={"w": set()}, rho={})
    assert info.value.violation.code == "empty-local-domain"
    assert info.value.violation.subject == "w"


def test_check_unknown_world():
    with pytest.raises(UnknownWorldError):
        check(single_world(), "nowhere", {}, parse("T"))


def test_successors_of_an_unknown_world_raises():
    m = KripkeModel.create(["w"], ["a"], [], {"w": {"a"}}, {})
    assert m.successors("w") == ()
    with pytest.raises(UnknownWorldError, match="'nowhere' is not in the model"):
        m.successors("nowhere")


def test_check_unbound_free_variable():
    with pytest.raises(UnboundVariableError):
        check(single_world(), "w", {}, parse("P(x)"))


def test_check_irrelevant_assignment():
    m = KripkeModel.create(worlds=["w"], domain=["a", "b"], edges=[],
                           local={"w": {"a"}}, rho={})
    with pytest.raises(IrrelevantAssignmentError):
        check(m, "w", {Var("x"): "b"}, parse("P(x)"))


def dual_form(f):
    """A x [] p -> !E x <> !p and A x <> p -> !E x [] !p, recursively."""
    if isinstance(f, Bundle) and f.quant is Quant.FORALL:
        flipped = Mod.DIAMOND if f.mod is Mod.BOX else Mod.BOX
        return Not(Bundle(Quant.EXISTS, flipped, f.var, Not(dual_form(f.body))))
    if isinstance(f, Bundle):
        return Bundle(f.quant, f.mod, f.var, dual_form(f.body))
    if isinstance(f, Not):
        return Not(dual_form(f.body))
    if isinstance(f, And):
        return And(dual_form(f.left), dual_form(f.right))
    if hasattr(f, "left"):
        return type(f)(dual_form(f.left), dual_form(f.right))
    return f


def test_universal_bundles_agree_with_negation_form():
    formulas = FormulaGenerator(23)
    models = ModelGenerator(29)
    for _ in range(150):
        f = formulas.formula()
        m = models.model()
        world = m.worlds[0]
        sigma = models.assignment(m, world, free_vars(f))
        assert check(m, world, sigma, f) == check(m, world, sigma, dual_form(f))


def test_check_agrees_on_transformed_formulas():
    from bfoml import cleanse, to_nnf
    formulas = FormulaGenerator(31)
    models = ModelGenerator(37)
    for _ in range(150):
        f = formulas.raw(2, 6)
        m = models.model()
        world = m.worlds[0]
        sigma = models.assignment(m, world, free_vars(f))
        value = check(m, world, sigma, f)
        assert check(m, world, sigma, to_nnf(f)) == value
        assert check(m, world, sigma, cleanse(f)) == value


def test_substitution_agrees_with_reassignment():
    # phi[y/x] under sigma matches phi under sigma with x remapped to sigma(y).
    from bfoml import substitute
    formulas = FormulaGenerator(41)
    models = ModelGenerator(43)
    done = 0
    while done < 150:
        f = formulas.formula()
        fv = sorted(free_vars(f), key=str)
        if not fv:
            continue
        x = fv[0]
        y = Var("w9")
        m = models.model()
        world = m.worlds[0]
        sigma = models.assignment(m, world, set(fv) | {y})
        shifted = dict(sigma)
        shifted[x] = sigma[y]
        assert check(m, world, sigma, substitute(f, y, x)) == check(m, world, shifted, f)
        done += 1


def test_json_round_trip():
    m = KripkeModel.create(
        worlds=["w0", "w1"], domain=["a", "b"], edges=[("w0", "w1")],
        local={"w0": {"a"}, "w1": {"a", "b"}},
        rho={"w1": {"P": {("b",)}, "Q": {("a", "b")}}})
    again = model_loads(m.dumps())
    assert again == m


def test_json_rejects_malformed():
    with pytest.raises(ModelFormatError):
        model_loads("{not json")
    with pytest.raises(ModelFormatError):
        model_loads('{"worlds": ["w"]}')
    with pytest.raises(ModelFormatError):
        model_loads('{"worlds": ["w"], "domain": ["a"], "edges": [["w"]], '
                    '"local": {"w": ["a"]}, "rho": {}}')


def test_constant_domain_flag():
    m = KripkeModel.create(worlds=["w", "v"], domain=["a"], edges=[("w", "v")],
                           local={"w": {"a"}, "v": {"a"}}, rho={})
    assert m.is_constant_domain
    n = KripkeModel.create(worlds=["w", "v"], domain=["a", "b"], edges=[("w", "v")],
                           local={"w": {"a"}, "v": {"a", "b"}}, rho={})
    assert not n.is_constant_domain
