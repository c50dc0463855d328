"""Relational front end: parsing, evaluation, encoding, witness models."""

import pytest

from bfoml import (Fragment, ParseError, Var, check, classify, cleanse,
                   enumerate_sat, is_clean, modal_depth, parse, parse_fo,
                   translate_qf, translate_sentence)
from bfoml.fo import (FOModel, build_witness_model, fo_check,
                      fo_enumerate_sat, fo_satisfying_models, format_fo)
from bfoml.formulas import And, Bundle, Mod, Quant, format_formula
from bfoml.kripke import KripkeModel, validate


def test_parse_fo_round_trip():
    for text in ["EX x . R(x,x)",
                 "EX x . EX y . R(x,y)",
                 "ALL x . EX y . (R(x,y) & !R(y,x))",
                 "EX x . ALL y . EX u . ((R(x,y) | R(y,u)) -> R(u,u))"]:
        s = parse_fo(text)
        assert parse_fo(format_fo(s)) == s


def test_parse_fo_rejects_open_formula():
    with pytest.raises(ParseError):
        parse_fo("EX x . R(x,y)")


def test_parse_fo_rejects_duplicate_binder():
    with pytest.raises(ParseError):
        parse_fo("EX x . ALL x . R(x,x)")


def test_parse_fo_rejects_other_predicates():
    with pytest.raises(ParseError):
        parse_fo("EX x . S(x,x)")


def test_parse_fo_needs_a_quantifier():
    with pytest.raises(ParseError):
        parse_fo("R(x,y)")


def test_fo_check_basics():
    empty = FOModel(("a",), frozenset())
    loop = FOModel(("a",), frozenset({("a", "a")}))
    assert fo_check(empty, parse_fo("EX x . EX y . R(x,y)")) is False
    assert fo_check(loop, parse_fo("ALL x . EX y . R(x,y)")) is True
    partial = FOModel(("a", "b"), frozenset({("a", "b")}))
    assert fo_check(partial, parse_fo("ALL x . EX y . R(x,y)")) is False


def test_fo_enumerate_first_model():
    found = fo_enumerate_sat(parse_fo("EX x . EX y . R(x,y)"), 1)
    assert found == FOModel(("d0",), frozenset({("d0", "d0")}))
    found = fo_enumerate_sat(parse_fo("ALL x . EX y . R(x,y)"), 1)
    assert found == FOModel(("d0",), frozenset({("d0", "d0")}))


def test_fo_enumerate_contradiction():
    s = parse_fo("ALL x . ALL y . EX u . EX v . (!R(x,y) & R(u,v))")
    assert fo_enumerate_sat(s, 3) is None


def test_translate_atom():
    encoded = translate_qf(parse("R(x,y)"))
    assert isinstance(encoded, Bundle)
    assert encoded.quant is Quant.EXISTS and encoded.mod is Mod.DIAMOND
    assert encoded.body == parse("(P(x) & Q(y))")


def test_translate_negation_is_homomorphic():
    from bfoml.formulas import Not
    encoded = translate_qf(Not(parse("R(x,y)")))
    assert isinstance(encoded, Not)
    assert encoded.body == translate_qf(parse("R(x,y)"))


def test_translate_two_atoms_get_distinct_witnesses():
    matrix = parse_fo("EX x . EX y . (R(x,y) & R(y,x))").matrix
    encoded = translate_qf(matrix)
    assert isinstance(encoded, And)
    assert encoded.left.var != encoded.right.var
    assert encoded.left.body == parse("(P(x) & Q(y))")
    assert encoded.right.body == parse("(P(y) & Q(x))")


def test_translate_sentence_prefix_mirror():
    encoded = translate_sentence(parse_fo("EX x . ALL y . R(x,y)"))
    psi1 = encoded.left.left
    assert format_formula(psi1) == "E x <> A y [] E z <> (P(x) & Q(y))"


def test_translate_sentence_measures():
    for n, text in [(1, "EX x . R(x,x)"),
                    (2, "EX x . ALL y . R(x,y)"),
                    (3, "ALL x . EX y . ALL u . (R(x,y) -> R(y,u))")]:
        encoded = translate_sentence(parse_fo(text))
        psi2 = encoded.left.right
        psi3 = encoded.right
        assert modal_depth(psi2) == n + 3
        conjuncts = []
        node = psi3
        while isinstance(node, And):
            conjuncts.append(node.right)
            node = node.left
        conjuncts.append(node)
        assert len(conjuncts) == n + 2
        assert modal_depth(psi3) == n + 3
        assert classify(encoded) is Fragment.EXISTS_DIAMOND
        assert cleanse(encoded) == encoded and is_clean(encoded)


def test_witness_model_shape():
    s = parse_fo("EX x . ALL y . R(x,y)")
    m = FOModel(("a",), frozenset({("a", "a")}))
    w = build_witness_model(m, s)
    assert set(w.worlds) == {"v1", "v2", "w1", "w2", "u_a"}
    assert w.facts("u_a", "P") == frozenset({("a",)})
    assert w.facts("u_a", "Q") == frozenset({("a",)})
    assert validate(w) is None
    assert w.is_constant_domain


def witness_shape_ok(w: KripkeModel, n: int, domain) -> bool:
    chain = ["v1", "v2"] + [f"w{i}" for i in range(1, n + 1)]
    fan = [f"u_{d}" for d in domain]
    if sorted(w.worlds) != sorted(chain + fan):
        return False
    for a, b in zip(chain, chain[1:]):
        if len(w.successors(a)) != 1 or w.successors(a) != (b,):
            return False
    if sorted(w.successors(chain[-1])) != sorted(fan):
        return False
    if any(w.successors(u) for u in fan):
        return False
    # Chain worlds carry no facts; every path v1..u_d crosses n+3 worlds.
    if any(w.facts(c, p) for c in chain for p in ("P", "Q")):
        return False
    return len(chain) + 1 == n + 3


def test_witness_shape_invariants_across_models():
    s = parse_fo("ALL x . EX y . R(x,y)")
    for m in fo_satisfying_models(s, 2):
        w = build_witness_model(m, s)
        assert witness_shape_ok(w, len(s.prefix), m.domain)
        assert w.is_constant_domain and validate(w) is None


def test_displayed_witness_fails_only_by_one_level():
    # The printed construction satisfies the prefix-mirror conjunct one step
    # into the chain, and the deepest path conjunct overshoots the fan.
    s = parse_fo("EX x . R(x,x)")
    m = FOModel(("a",), frozenset({("a", "a")}))
    w = build_witness_model(m, s)
    encoded = translate_sentence(s)
    psi1, psi2, psi3 = encoded.left.left, encoded.left.right, encoded.right
    assert check(w, "v1", {}, psi1) is False
    assert check(w, "v2", {}, psi1) is True
    assert check(w, "v1", {}, psi2) is True
    assert check(w, "v1", {}, psi3.right) is False  # deepest conjunct
    assert check(w, "v1", {}, psi3.left) is True    # all shallower ones


def tailed_witness(m: FOModel, s) -> KripkeModel:
    """Witness variant satisfying the encoding at its root.

    Drops the second lead-in world (the prefix mirror then reads the fan at
    exactly the right depth) and hangs two fact-free tail worlds under each
    fan world (the path conjuncts never overshoot, and the agreement
    conjunct only ever reads empty tails).
    """
    n = len(s.prefix)
    chain = ["v1"] + [f"w{i}" for i in range(1, n + 1)]
    worlds = list(chain)
    edges = list(zip(chain, chain[1:]))
    rho = {}
    for d in m.domain:
        u, t1, t2 = f"u_{d}", f"t_{d}", f"t2_{d}"
        worlds += [u, t1, t2]
        edges += [(chain[-1], u), (u, t1), (t1, t2)]
        rho[u] = {"P": {(d,)}, "Q": {(c,) for (a, c) in m.rel if a == d}}
    return KripkeModel.create(worlds, m.domain, edges,
                              {w: set(m.domain) for w in worlds}, rho)


CURATED_FORWARD = [
    "EX x . R(x,x)",
    "EX x . EX y . R(x,y)",
    "ALL x . R(x,x)",
    "ALL x . EX y . R(x,y)",
    "EX x . ALL y . R(x,y)",
    "ALL x . ALL y . (R(x,y) -> R(y,x))",
    "EX x . EX y . (R(x,y) & !R(y,x))",
    "ALL x . EX y . !R(x,y)",
]


def test_forward_encoding_holds_on_tailed_witness():
    for text in CURATED_FORWARD:
        s = parse_fo(text)
        encoded = translate_sentence(s)
        for m in fo_satisfying_models(s, 2):
            assert check(tailed_witness(m, s), "v1", {}, encoded) is True


def test_bounded_bridge_on_curated_sentences():
    # Exists-led sentences only: an all-led encoding is vacuously satisfiable
    # at a successor-free world, so the bounded equivalence cannot hold there.
    sat_cases = ["EX x . R(x,x)", "EX x . EX y . R(x,y)"]
    unsat_cases = ["EX x . (R(x,x) & !R(x,x))"]
    for text in sat_cases:
        s = parse_fo(text)
        assert fo_enumerate_sat(s, 1) is not None
        found = enumerate_sat(translate_sentence(s), len(s.prefix) + 3, 1, "constant")
        assert found is not None
    for text in unsat_cases:
        s = parse_fo(text)
        assert fo_enumerate_sat(s, 3) is None
        # Exhaustive none; three worlds keep the full frame sweep fast.
        found = enumerate_sat(translate_sentence(s), 3, 1, "constant",
                              budget=50_000_000)
        assert found is None


def test_translation_of_an_undesugared_matrix_is_an_internal_error():
    # Or and implies are expanded before translation; the check survives -O.
    from bfoml import InternalSolverError
    from bfoml.fo import _translate_matrix
    from bfoml.formulas import Or
    matrix = Or(parse("R(x,y)"), parse("R(y,x)"))
    with pytest.raises(InternalSolverError):
        _translate_matrix(matrix, iter([Var("z")]))


@pytest.mark.parametrize("matrix", [
    "T", "F", "S(x,x)", "R(x)", "R(x,x,x)", "R()", "R(X,x)", "E y [] R(x,y)",
    "(R(x,x) & T)", "!", "(R(x,x) | R(x))",
])
def test_parse_fo_rejects_malformed_matrix_with_position(matrix):
    with pytest.raises(ParseError) as info:
        parse_fo("EX x . " + matrix)
    assert info.value.line is not None and info.value.column is not None


def test_parse_fo_matrix_is_an_ordinary_formula():
    matrix = "((R(x,y) | !R(y,x)) -> (R(x,x) & R(y,y)))"
    assert parse_fo("ALL x . EX y . " + matrix).matrix == parse(matrix)


def test_translate_sentence_full_text():
    encoded = translate_sentence(parse_fo("EX x . ((R(x,x) | !R(x,x)) -> R(x,x))"))
    assert format_formula(encoded) == (
        "((E x <> !(!(!E z <> (P(x) & Q(x)) & !!E z^1 <> (P(x) & Q(x))) "
        "& !E z^2 <> (P(x) & Q(x))) & A z^3 [] A z^4 [] "
        "(E z^6 <> E z^5 <> (P(z^3) & Q(z^4)) -> A z^8 [] E z^7 <> (P(z^3) & Q(z^4)))) "
        "& ((A z^10 [] E z^9 <> T & A z^13 [] A z^12 [] E z^11 <> T) "
        "& A z^17 [] A z^16 [] A z^15 [] E z^14 <> T))")


@pytest.mark.parametrize("matrix", [
    "T", "P(x)", "R(x,x,x)", "E y [] R(x,y)", "(R(x,x) & !Q(x))",
], ids=["top", "other-predicate", "ternary-R", "bundle", "nested-other-predicate"])
def test_fo_sentence_rejects_a_hand_built_malformed_matrix(matrix):
    from bfoml import FOSentence, FragmentError
    with pytest.raises(FragmentError, match="R/2 atoms"):
        FOSentence(((Quant.EXISTS, Var("x")),), parse(matrix))


def test_fo_sentence_rejects_a_matrix_that_is_not_a_formula():
    from bfoml import FOSentence, FragmentError
    with pytest.raises(FragmentError, match="R/2 atoms"):
        FOSentence(((Quant.EXISTS, Var("x")),), 42)


def test_fo_sentence_accepts_parsed_matrices():
    from bfoml import FOSentence
    s = parse_fo("ALL x . EX y . ((R(x,y) | !R(y,x)) -> (R(x,x) & R(y,y)))")
    assert FOSentence(s.prefix, s.matrix) == s


def test_parse_fo_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_fo("EX x . " + "!" * 3000 + "R(x,x)")
