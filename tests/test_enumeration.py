"""Bounded model search: frozen examples, self-consistency, determinism, frame log replay,
the modal-depth prune, propagation while grounding."""

from itertools import permutations, product

import pytest

from bfoml import (ArgumentError, BfomlError, ResourceLimitError, check,
                   enumerate_sat, enumeration, fuzz, identity_assignment, parse)
from bfoml.formulas import And, Bundle, cleanse, free_vars, modal_depth, to_nnf, var_key
from bfoml.limits import Budget

BUDGET_OUT = "bounded model search ran out of budget; result is inconclusive"

FOOTNOTE_PAIR = "(A x [] A y [] !P(x) & A z [] E w <> P(w))"
SERIAL_FOOTNOTE_PAIR = "(E u <> T & " + FOOTNOTE_PAIR + ")"


def test_vacuous_box_found_at_minimum_bounds():
    result = enumerate_sat(parse("E x [] P(x)"), 1, 1)
    assert result is not None
    assert result.model.worlds == ("w0",)
    assert result.root == "w0"


def test_contradiction_has_no_model():
    assert enumerate_sat(parse("(P(x) & !P(x))"), 2, 2) is None


def test_footnote_pair_is_satisfiable_under_both_semantics():
    # Both conjuncts are universal bundles, so a successor-free world makes
    # them vacuously true; the one-world model therefore exists even with a
    # constant domain.
    f = parse(FOOTNOTE_PAIR)
    for semantics in ("increasing", "constant"):
        result = enumerate_sat(f, 4, 3, semantics)
        assert result is not None
        assert result.model.worlds == ("w0",)
        assert result.model.edges == frozenset()


def test_serial_footnote_pair_separates_the_semantics():
    # Forcing one successor removes the vacuous reading: satisfiable with
    # growing domains, exhaustively unsatisfiable with a constant one.
    f = parse(SERIAL_FOOTNOTE_PAIR)
    increasing = enumerate_sat(f, 3, 2, "increasing")
    assert increasing is not None
    assert not increasing.model.is_constant_domain
    assert enumerate_sat(f, 3, 2, "constant") is None


def test_found_model_passes_independent_check():
    for text in ["E x <> P(x)", "(E x [] P(x) & A y <> Q(y))", "A x [] E y <> Q(x,y)"]:
        f = parse(text)
        result = enumerate_sat(f, 3, 2)
        assert result is not None
        normalized = cleanse(to_nnf(f))
        sigma = {v: str(v) for v in free_vars(normalized)}
        assert check(result.model, result.root, sigma, normalized)


def test_open_formula_uses_identity_assignment():
    result = enumerate_sat(parse("(P(x) & !P(y))"), 1, 2)
    assert result is not None
    assert {"x", "y"} <= set(result.model.domain)
    assert {"x", "y"} <= result.model.local[result.root]


def test_too_many_free_variables_for_domain_bound():
    assert enumerate_sat(parse("(P(x) & (P(y) & P(u)))"), 2, 2) is None


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceLimitError):
        enumerate_sat(parse("(E x [] P(x) & A y <> !P(y))"), 4, 3, budget=50)


def test_deterministic_result():
    f = parse("(A x [] (P(x) | Q(x)) & E y <> !P(y))")
    first = enumerate_sat(f, 3, 2)
    second = enumerate_sat(f, 3, 2)
    assert first.model == second.model
    assert first.root == second.root


def test_unknown_semantics_rejected():
    with pytest.raises(ValueError):
        enumerate_sat(parse("T"), 1, 1, "varying")


def test_unknown_semantics_is_a_typed_error():
    with pytest.raises(BfomlError, match="semantics must be one of"):
        enumerate_sat(parse("P(x)"), 1, 1, "bogus")


def test_oracle_agreement_rejects_unknown_semantics_before_deciding(monkeypatch):
    def decide(*args, **kwargs):
        raise AssertionError("a formula was decided")

    monkeypatch.setattr(fuzz, "decide_increasing", decide)
    monkeypatch.setattr(fuzz, "decide_constant_eb", decide)
    with pytest.raises(BfomlError, match="semantics must be one of"):
        fuzz.run_oracle_agreement(1, 2, semantics="bogus")


def test_oracle_agreement_rejects_ed_under_constant_semantics_before_deciding(monkeypatch):
    def decide(*args, **kwargs):
        raise AssertionError("a formula was decided")

    monkeypatch.setattr(fuzz, "decide_increasing", decide)
    monkeypatch.setattr(fuzz, "decide_constant_eb", decide)
    with pytest.raises(ArgumentError, match="exists-box"):
        fuzz.run_oracle_agreement(1, 2, fragment="ed", semantics="constant")


# The frame log against the streaming enumeration it replaces: the same
# frames in the same order, charged one budget unit per edge mask and one
# per local-domain map tried, spent as it goes.  The reference has its own
# reachability walk and its own orbit minimum, so a fault in the module's
# _reachable_from_root or _is_canonical changes the expected sequence.

def reference_reachable(succs, reach=None):
    """Every world is at most reach steps from world 0 (any number of steps
    when reach is None)."""
    reached = {0}
    for _ in range(len(succs) if reach is None else reach):
        reached |= {j for i in reached for j in succs[i]}
    return len(reached) == len(succs)


def reference_canonical(succs, delta):
    """The frame is the least of its images under the permutations that fix
    world 0, ordered by sorted edge list and then by sorted local domains."""
    n = len(succs)

    def image(perm):
        edges = sorted((perm[i], perm[j]) for i, row in enumerate(succs) for j in row)
        domains = [None] * n
        for i in range(n):
            domains[perm[i]] = tuple(sorted(delta[i]))
        return edges, domains

    return image(range(n)) == min(image((0,) + rest) for rest in permutations(range(1, n)))


def reference_frames(n_worlds, n_dom, semantics, n_free, reach=None, *, tracker):
    full = frozenset(range(n_dom))
    nonempty = [frozenset(b for b in range(n_dom) if mask >> b & 1)
                for mask in range(1, 1 << n_dom)]
    root_required = frozenset(range(n_free))
    for edge_mask in range(1 << (n_worlds * n_worlds)):
        tracker.spend()
        succs = tuple(
            tuple(j for j in range(n_worlds) if edge_mask >> (i * n_worlds + j) & 1)
            for i in range(n_worlds))
        if not reference_reachable(succs, reach):
            continue
        if semantics == "constant":
            delta_choices = [tuple([full] * n_worlds)]
        else:
            delta_choices = (
                d for d in product(nonempty, repeat=n_worlds)
                if d[0] >= root_required
                and all(d[i] <= d[j] for i, row in enumerate(succs) for j in row))
        for delta in delta_choices:
            tracker.spend()
            if reference_canonical(succs, delta):
                yield succs, delta


def reference_enumerate_sat(formula, max_worlds, max_domain, semantics, budget):
    tracker = Budget(budget, BUDGET_OUT)
    psi = cleanse(to_nnf(formula))
    fv_names = [str(v) for v in sorted(free_vars(psi), key=var_key)]
    sigma0 = identity_assignment(free_vars(psi))
    if len(fv_names) > max_domain:
        return None
    fillers = [f"d{k}" for k in range(max_domain + len(fv_names))
               if f"d{k}" not in fv_names][:max_domain]
    for n_worlds in range(1, max_worlds + 1):
        reach = min(modal_depth(psi), n_worlds - 1)
        if n_worlds > 1 and reach == 0:
            break
        worlds = [f"w{i}" for i in range(n_worlds)]
        for n_dom in range(max(1, len(fv_names)), max_domain + 1):
            elements = (fv_names + fillers)[:n_dom]
            for succs, delta in reference_frames(n_worlds, n_dom, semantics,
                                                 len(fv_names), reach, tracker=tracker):
                result = enumeration._try_frame(psi, worlds, elements, succs, delta,
                                                sigma0, tracker)
                if result is not None:
                    return result
    return None


def outcome(search, *args):
    try:
        result = search(*args)
    except ResourceLimitError as exc:
        return f"budget: {exc}"
    return None if result is None else (result.root, result.model.dumps())


# Each case is still out of budget after about 100 units (the last assertion),
# so replay and enumeration are compared at that many budgets.
REPLAY_CASES = [
    ("(E x <> P(x) & A y <> !P(y))", 3, 3, "increasing"),
    ("(P(x) & E y <> (!P(x) & Q(x,y)))", 2, 3, "increasing"),
    ("(E x <> P(x) & A y <> !P(y))", 3, 3, "constant"),
    ("(E x [] P(x) & A y <> !P(y))", 2, 1, "constant"),
]


@pytest.mark.parametrize("text, max_worlds, max_domain, semantics", REPLAY_CASES)
def test_replay_matches_streaming_enumeration_at_every_budget(
        text, max_worlds, max_domain, semantics):
    f = parse(text)
    bounds = (f, max_worlds, max_domain, semantics)
    expected = []
    while not expected or str(expected[-1]).startswith("budget: "):
        expected.append(outcome(reference_enumerate_sat, *bounds, len(expected) + 1))
    expected += [expected[-1]] * 3
    cold, warm = [], []
    for budget in range(1, len(expected) + 1):
        enumeration._FRAME_LOGS.clear()
        cold.append(outcome(enumerate_sat, *bounds, budget))
    enumerate_sat(*bounds)
    for budget in range(1, len(expected) + 1):
        warm.append(outcome(enumerate_sat, *bounds, budget))
    assert cold == expected
    assert warm == expected
    assert len(expected) > 100 and expected[0].startswith("budget: ")


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt without stopping the test run if it escapes."""


def test_interrupted_fill_leaves_later_calls_correct(monkeypatch):
    text, max_worlds, max_domain, semantics = REPLAY_CASES[0]
    bounds = (parse(text), max_worlds, max_domain, semantics)
    expected = outcome(reference_enumerate_sat, *bounds, 10_000)
    real = enumeration._is_canonical
    calls = []
    interrupt_at = None

    def interrupting(*args):
        calls.append(args)
        if len(calls) == interrupt_at:
            raise Interrupt
        return real(*args)

    def fill_in_part():
        nonlocal interrupt_at
        enumeration._FRAME_LOGS.clear()
        interrupt_at = None
        enumerate_sat(bounds[0], 1, max_domain, semantics)
        calls.clear()

    monkeypatch.setattr(enumeration, "_is_canonical", interrupting)
    fill_in_part()
    assert outcome(enumerate_sat, *bounds, 10_000) == expected
    total = len(calls)
    for at in (1, total // 2, total):
        fill_in_part()
        interrupt_at = at
        with pytest.raises(Interrupt):
            enumerate_sat(*bounds)
        assert outcome(enumerate_sat, *bounds, 10_000) == expected
        assert outcome(enumerate_sat, *bounds, 10_000) == expected


@pytest.mark.parametrize("shape", [
    (1, 2, "increasing", 0), (2, 2, "increasing", 1), (3, 2, "increasing", 0),
    (3, 1, "constant", 0), (3, 2, "constant", 2),
    # The fifth element bounds the steps from the root to every world.
    (3, 2, "increasing", 0, 1), (3, 2, "increasing", 1, 0), (3, 2, "constant", 2, 1),
])
def test_log_equals_streaming_frame_sequence(shape):
    enumeration._FRAME_LOGS.pop(shape, None)
    counter = Budget(10 ** 9, BUDGET_OUT)
    expected = [(counter.spent, edges, delta)
                for edges, delta in reference_frames(*shape, tracker=counter)]
    expected.append((counter.spent, None, None))
    tracker = Budget(10 ** 9, BUDGET_OUT)
    got = [(tracker.spent, edges, delta)
           for edges, delta in enumeration._frames(shape, tracker)]
    got.append((tracker.spent, None, None))
    assert got == expected
    log, _ = enumeration._FRAME_LOGS[shape]
    assert len(log) == len(expected)
    assert sum(charge for charge, _, _ in log) == expected[-1][0]


# The modal-depth prune against the full search: a formula of modal depth d
# is true at the root iff it is true in the submodel of the worlds within d
# steps, so a model with a world beyond the reach truncates to a smaller one
# that an earlier world-count pass meets first.  The prune may only save
# budget: every conclusive unpruned answer stays the same, byte for byte.

def unpruned(monkeypatch, search, *args):
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "modal_depth", lambda formula: 10 ** 6)
        return search(*args)


@pytest.mark.parametrize("seed, fragment, semantics", [
    (1, "full", "increasing"), (2, "eb", "constant"), (3, "ed", "increasing"),
])
def test_pruned_first_model_equals_the_unpruned_one(monkeypatch, seed, fragment, semantics):
    real_try_frame = enumeration._try_frame
    tried = []

    def counting(*args):
        tried.append(args)
        return real_try_frame(*args)

    monkeypatch.setattr(enumeration, "_try_frame", counting)
    gen = fuzz.FormulaGenerator(seed, fragment=fragment)
    drawn = [gen.formula() for _ in range(200)]
    formulas = [f for f in drawn if modal_depth(cleanse(to_nnf(f))) >= 1]
    # Without a model, so every 3-world frame within one step is searched.
    formulas.append(parse("(E x <> P(x) & A y [] !P(y))"))
    conclusive = frames_full = frames_pruned = 0
    for f in formulas:
        bounds = (f, 3, 3, semantics, 50_000)
        tried.clear()
        full = unpruned(monkeypatch, outcome, enumerate_sat, *bounds)
        frames_full += len(tried)
        tried.clear()
        pruned = outcome(enumerate_sat, *bounds)
        frames_pruned += len(tried)
        if str(full).startswith("budget: "):
            continue
        assert pruned == full, f
        conclusive += 1
    assert len(formulas) > 60 and conclusive > 60
    assert frames_pruned < frames_full


def test_a_modal_free_formula_searches_one_world_only(monkeypatch):
    f = parse("(P(x) & !P(x))")
    with pytest.raises(ResourceLimitError, match=BUDGET_OUT):
        unpruned(monkeypatch, enumerate_sat, f, 4, 3, "increasing", 2_000)
    assert enumerate_sat(f, 4, 3, budget=2_000) is None


# Propagation against an exhaustive search: whenever _ground refutes a
# frame, no assignment of the atoms of the fully ground formula satisfies
# it, and the propagation that refuted it spent budget.  Each formula
# conjoins four draws of modal depth 1 that are bundles, so that whether
# propagation refutes a frame depends on the frame's successors and domains.

class RecordedPropagation(enumeration._Propagation):
    """The module's propagation, recording what each need call spent and returned."""

    calls = []

    def need(self, root):
        before = self.budget.spent
        holds = super().need(root)
        self.calls.append((self.budget.spent - before, holds))
        return holds


class NoPropagation(enumeration._Propagation):
    def need(self, root):
        return True


def ground_atoms(node, atoms):
    if node is not True and node is not False:
        if node[0] == "lit":
            atoms.add(node[2])
        else:
            for child in node[1]:
                ground_atoms(child, atoms)
    return atoms


def value(node, assignment):
    """The node's value under a partial assignment: True, False or None."""
    if node is True or node is False:
        return node
    if node[0] == "lit":
        atom_value = assignment.get(node[2])
        return None if atom_value is None else atom_value is node[1]
    values = [value(child, assignment) for child in node[1]]
    absorbing = node[0] == "or"
    if absorbing in values:
        return absorbing
    return None if None in values else not absorbing


def satisfiable(node, atoms, assignment):
    """Whether an assignment of the atoms that extends assignment makes node
    true.  Tries both values of each atom in turn; a branch ends only once
    the node's value is decided."""
    decided = value(node, assignment)
    if decided is not None:
        return decided
    atom = atoms[len(assignment)]
    return any(satisfiable(node, atoms, {**assignment, atom: choice})
               for choice in (False, True))


def bundle_conjunction(gen):
    parts = []
    while len(parts) < 4:
        f = gen.raw(1, 3)
        if isinstance(f, Bundle):
            parts.append(f)
    return cleanse(to_nnf(And(And(parts[0], parts[1]), And(parts[2], parts[3]))))


@pytest.mark.parametrize("seed, fragment", [(1, "full"), (2, "eb")])
def test_a_refuted_frame_has_no_satisfying_assignment(monkeypatch, seed, fragment):
    monkeypatch.setattr(enumeration, "_Propagation", RecordedPropagation)
    gen = fuzz.FormulaGenerator(seed, fragment, variables=("x", "y"))
    drawn = (bundle_conjunction(gen) for _ in range(40))
    by_propagation = mixed = 0
    for psi in [f for f in drawn if len(free_vars(f)) <= 2][:3]:
        names = [str(v) for v in sorted(free_vars(psi), key=var_key)]
        sigma0 = identity_assignment(free_vars(psi))
        elements = (names + ["d0", "d1"])[:2]
        outcomes = set()
        for n_worlds, semantics in product((2, 3), enumeration.SEMANTICS):
            worlds = [f"w{i}" for i in range(n_worlds)]
            shape = (n_worlds, 2, semantics, len(names))
            for succs, delta in enumeration._frames(shape, Budget(10 ** 9, BUDGET_OUT)):
                frame = ({worlds[i]: tuple(sorted(elements[b] for b in d))
                          for i, d in enumerate(delta)},
                         {worlds[i]: tuple(worlds[j] for j in row)
                          for i, row in enumerate(succs)})
                RecordedPropagation.calls.clear()
                tracker = Budget(10 ** 9, BUDGET_OUT)
                refuted = enumeration._ground(psi, "w0", sigma0, *frame, tracker) is False
                outcomes.add(refuted)
                if not refuted:
                    continue
                calls = RecordedPropagation.calls
                assert tracker.spent > 0 and all(spent > 0 for spent, _ in calls)
                by_propagation += bool(calls) and not calls[-1][1]
                with monkeypatch.context() as patch:
                    patch.setattr(enumeration, "_Propagation", NoPropagation)
                    full = enumeration._ground(psi, "w0", sigma0, *frame,
                                               Budget(10 ** 9, BUDGET_OUT))
                assert not satisfiable(full, sorted(ground_atoms(full, set())), {}), psi
        mixed += len(outcomes) == 2
    assert by_propagation > 100 and mixed >= 2
