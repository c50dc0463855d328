"""Bounded brute-force satisfiability oracle.

Searches every model shape up to the given world and domain bounds for one
satisfying the formula at a designated root under the identity assignment on
its free variables.  Used as an independent check on the tableau procedures,
so it shares no code with them: frames (worlds, edges, local domains) are
enumerated exhaustively, and for each frame the existence of a satisfying
interpretation is decided by grounding the formula into a propositional
constraint over (world, predicate, tuple) atoms and running a small
backtracking SAT search on it.

Frames are pruned in three sound ways, all from the generated-submodel
lemma (Blackburn, de Rijke & Venema, *Modal Logic*, 2001, ch. 2): truth of a
formula of modal depth d at the root depends only on the worlds at most d
steps from it, and local domains still grow along every edge (or stay
constant) in that submodel.  So every world must be at most
``reach = min(d, n_worlds - 1)`` steps from the root, a pass with more than
one world is skipped when the reach is 0, and frames that are isomorphic
under a permutation of the non-root worlds are visited once.  None of this
changes the first model found: a model with a world beyond the reach
truncates to one with fewer worlds, which an earlier world-count pass meets
first.  Within the bounds the search is exhaustive up to these reductions,
so ``None`` means no bounded model exists.  A work budget caps runtime and
raises ResourceLimitError when exhausted.

A frame can also be refuted while it is ground.  The conjuncts of the
formula's top-level ``&`` spine are ground one at a time, left to right, and
after each one Boolean constraint propagation (``_Propagation``) derives
literals that every model of the frame satisfies.  When some atom is forced
both ways, or a disjunction that must hold has no disjunct left, the frame
is dropped before the rest of the formula is ground and before any search.
This cannot change a result.  Propagation derives only what every model
satisfies, so a refuted frame has no model, and the search would have
returned None on it.  On a frame that is not refuted, the search runs on one
and-node over the conjuncts.  At every step that node has the same
three-valued value and the same first unknown atom as the nested and-nodes
of the spine, so the search makes the same decisions and finds the same
first assignment.  Only the budget spent changes.

A refutation is replayed where the part of the frame it read recurs.  The
view of a frame at depth m is the local domain and successor row of each
world fewer than m steps from the root (``_view``).  Each call keeps a table
from the views of the frames it refuted, at m the largest modal depth among
the conjuncts ground before the refutation, to the budget that refuting each
one spent; a frame whose view is in the table is not ground, and the table
dies with the call, since its keys do not name the formula.  This changes
nothing but the time taken.  Grounding a formula of modal depth m at the
root reads ``delta`` and ``succs`` only at worlds fewer than m steps away:
a bundle at a world reads that world's domain and row and grounds its body,
one depth less, at the successors, and an atom carries only names.  Within
one call world i is always ``w{i}``, and element b always ``elements[b]``,
since every pass takes a prefix of the same list of names.  So two frames
with the same view ground the refuting prefix of conjuncts to the same DAG,
built in the same order, on which propagation refutes again after the same
unit spends.  Spending their total in bulk raises ResourceLimitError exactly
when the unit spends would, as in ``_frames``'s replay.  So models, ``None``,
budget-outs and the budget spent by every call that returns are the same at
every budget as when each frame is ground.

The frames depend on the formula only through the reach, so they are fixed
by the shape (number of worlds, domain size, semantics, number of free
variables, reach).  Each shape's canonical frames are enumerated once per
process and kept in a log, which later calls replay (see ``_frames``).  A
frame has one form from enumeration to model: ``succs``, a tuple of each
world's successor indices, and ``delta``, each world's local domain as a set
of element indices.  The log is filled lazily, only as far as some call has
read it, and each entry holds, next to its frame, its charge: the budget the
enumeration spent to reach it, one unit per edge set and per local-domain
map tried.  So a replay spends exactly what the enumeration would have and
runs out of budget at the same place.  A log's memory is therefore bounded
by the largest budget any call has spent on the shape's frames.  The logs
are module state and are not thread-safe: calls to ``enumerate_sat`` must
not run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, permutations, product

from .errors import ArgumentError, InternalSolverError, ResourceLimitError
from .formulas import (And, Atom, Bot, Bundle, Formula, Mod, Not, Or, Quant,
                       Top, Var, cleanse, free_vars, modal_depth, to_nnf, var_key)
from .kripke import KripkeModel, check, identity_assignment
from .limits import Budget, require_at_least_one

SEMANTICS = ("increasing", "constant")


@dataclass(frozen=True)
class EnumerationResult:
    model: KripkeModel
    root: str


def _near(succs: tuple[tuple[int, ...], ...], steps: int) -> list[int]:
    """The worlds at most steps steps from world 0, in breadth-first order
    (none when steps < 0).  Stops at the first level that adds no world."""
    near = [0] if steps >= 0 else []
    start = 0
    while steps > 0 and start < len(near):
        steps -= 1
        end = len(near)
        for a in near[start:end]:
            for b in succs[a]:
                if b not in near:
                    near.append(b)
        start = end
    return near


def _reachable_from_root(succs: tuple[tuple[int, ...], ...],
                         reach: int | None = None) -> bool:
    """Whether every world is at most reach steps from world 0 (any number
    of steps when reach is None)."""
    return len(_near(succs, len(succs) if reach is None else reach)) == len(succs)


def _view(succs: tuple[tuple[int, ...], ...], delta: tuple[frozenset[int], ...],
          depth: int) -> tuple:
    """The local domain and successor row of each world fewer than depth
    steps from world 0, in breadth-first order: all of the frame that
    grounding a formula of that modal depth at the root reads."""
    return tuple([(delta[a], succs[a]) for a in _near(succs, depth - 1)])


def _is_canonical(succs: tuple[tuple[int, ...], ...],
                  delta: tuple[frozenset[int], ...]) -> bool:
    """Keep one frame per orbit of the root-fixing world permutations."""
    n = len(succs)
    if n <= 2:
        return True
    # Lists, not tuples: sorted edge tuples of every length would fill
    # CPython's tuple free lists, about 1.5 MiB held after one 4-world fill.
    sig = ([(a, b) for a, row in enumerate(succs) for b in row],
           [tuple(sorted(s)) for s in delta])
    for perm in permutations(range(1, n)):
        p = (0,) + perm
        p_edges = sorted((p[a], p[b]) for a, row in enumerate(succs) for b in row)
        p_delta: list[tuple[int, ...]] = [()] * n
        for i in range(n):
            p_delta[p[i]] = tuple(sorted(delta[i]))
        if (p_edges, p_delta) < sig:
            return False
    return True


class _Propagation:
    """Boolean constraint propagation over a ground DAG that grows by conjuncts.

    Every node given to ``need`` is true in every model of the frame.  A node
    is false once its three-valued value under the forced atoms is False: a
    literal whose atom is forced the other way, an and-node with a false
    child, an or-node whose children are all false.  A needed and-node needs
    all of its children, a needed or-node with exactly one child that is not
    false needs that child, and a needed literal forces its atom.  A needed
    node that is false refutes the frame; this covers an atom forced both
    ways and a needed or-node with no open child.

    Only a needed or-node must learn when its children turn false, so only
    the nodes under needed or-nodes are registered, once each, with links to
    the registered nodes above them; a node that turns false tells only
    those.  The state carries
    over from one conjunct to the next, so the work over a whole conjunction
    is linear in the size of its DAG.  Grounding has already charged every
    node once, so registering is free; each node that ``need`` visits costs
    one budget unit, as in eval3.  Nodes are keyed by id, which is safe while
    the grounding memo and the DAG built from it hold every node.
    """

    def __init__(self, budget: Budget):
        self.budget = budget
        self.forced: dict[tuple, bool] = {}
        self.lits: dict[tuple, list] = {}  # (atom, sign) -> registered literal nodes
        self.parents: dict[int, list] = {}  # id(registered node) -> registered nodes above it
        self.open: dict[int, int] = {}  # id(registered or-node) -> children not false
        self.false: set[int] = set()
        self.needed: set[int] = set()

    def _register(self, root) -> None:
        """Register the nodes under root that are not yet registered,
        children first, so that each one's falsity follows from theirs."""
        parents, false = self.parents, self.false
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in parents:
                continue
            kind = node[0]
            if kind != "lit" and not ready:
                stack.append((node, True))
                stack.extend((c, False) for c in node[1] if id(c) not in parents)
                continue
            parents[id(node)] = []
            if kind == "lit":
                self.lits.setdefault((node[2], node[1]), []).append(node)
                if self.forced.get(node[2], node[1]) is not node[1]:
                    false.add(id(node))
                continue
            left = 0
            for c in node[1]:
                parents[id(c)].append(node)
                left += id(c) not in false
            if kind == "or":
                self.open[id(node)] = left
            if left == 0 or (kind == "and" and left < len(node[1])):
                false.add(id(node))

    def need(self, root) -> bool:
        """Require root, a conjunct's node, and propagate; False when that
        refutes the frame."""
        parents, false, open_ = self.parents, self.false, self.open
        needed, forced = self.needed, self.forced
        needs, fallen = [root], []
        visits = 0
        try:
            while needs or fallen:
                visits += 1
                if fallen:  # a node turned false: tell the nodes above it
                    node = fallen.pop()
                    if id(node) in needed:
                        return False
                    for p in parents[id(node)]:
                        key = id(p)
                        if key in false:
                            continue
                        if p[0] == "or":
                            left = open_[key] = open_[key] - 1
                            if left == 1 and key in needed:
                                needs.append(p)
                            if left:
                                continue
                        false.add(key)
                        fallen.append(p)
                    continue
                node = needs.pop()
                key = id(node)
                if key in false:
                    return False
                kind = node[0]
                if key in needed and kind != "or":
                    continue
                needed.add(key)
                if kind == "lit":
                    value = forced.get(node[2])
                    if value is None:
                        forced[node[2]] = node[1]
                        for lit in self.lits.get((node[2], not node[1]), ()):
                            false.add(id(lit))
                            fallen.append(lit)
                    elif value is not node[1]:
                        return False
                elif kind == "and":
                    needs.extend(node[1])
                else:
                    if key not in parents:
                        self._register(node)
                        if key in false:
                            return False
                    if open_[key] == 1:
                        needs.extend(c for c in node[1] if id(c) not in false)
            return True
        finally:
            self.budget.spend(visits)


def _ground(formula: Formula, root: str, sigma0: dict[Var, str],
            delta: dict[str, tuple[str, ...]], succs: dict[str, tuple[str, ...]],
            budget: Budget):
    """Expand the NNF formula over a fixed frame into a propositional DAG,
    or refute the frame while doing so.

    Nodes are True, False, ("lit", sign, atom) with atom = (world, pred,
    elements), ("and", children) or ("or", children).  Sharing comes from a
    memo on (subformula, world, relevant bindings).  The conjuncts of the
    formula's top-level & spine are ground one at a time, left to right,
    and _Propagation runs after each.  Returns (node, depth).  node is False
    as soon as a conjunct grounds to False or propagation refutes the frame,
    else the and-node of the conjuncts' nodes (True when there are none
    left).  depth is the largest modal depth among the conjuncts ground, so
    a refutation read the frame only fewer than depth steps from the root.
    """
    memo: dict[tuple[int, str, tuple[str, ...]], object] = {}

    def mk(kind: str, children: list[object]):
        identity = kind == "and"  # true is dropped from and-nodes, false from or-nodes
        out: list[object] = []
        seen: set[int] = set()
        for c in children:
            if c is (not identity):
                return not identity
            if c is identity:
                continue
            if id(c) not in seen:
                seen.add(id(c))
                out.append(c)
        if not out:
            return identity
        if len(out) == 1:
            return out[0]
        budget.spend()
        return (kind, tuple(out))

    def build(f: Formula, w: str, sigma: dict[Var, str]):
        key = (id(f), w, tuple(sigma[v] for v in free_vars(f)))
        got = memo.get(key)
        if got is not None or key in memo:
            return got
        budget.spend()
        if isinstance(f, Atom):
            node = ("lit", True, (w, f.pred.name, tuple(sigma[v] for v in f.args)))
        elif isinstance(f, Not):
            body = f.body
            if not isinstance(body, Atom):
                raise InternalSolverError("grounding expects NNF input")
            node = ("lit", False, (w, body.pred.name, tuple(sigma[v] for v in body.args)))
        elif isinstance(f, Top):
            node = True
        elif isinstance(f, Bot):
            node = False
        elif isinstance(f, And):
            node = mk("and", [build(f.left, w, sigma), build(f.right, w, sigma)])
        elif isinstance(f, Or):
            node = mk("or", [build(f.left, w, sigma), build(f.right, w, sigma)])
        elif isinstance(f, Bundle):
            per_element = []
            for d in delta[w]:
                child_sigma = dict(sigma)
                child_sigma[f.var] = d
                bodies = [build(f.body, v, child_sigma) for v in succs[w]]
                inner = mk("and" if f.mod is Mod.BOX else "or", bodies)
                per_element.append(inner)
            node = mk("and" if f.quant is Quant.FORALL else "or", per_element)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = node
        return node

    propagation = _Propagation(budget)
    nodes = []
    spine = [formula]
    depth = 0
    while spine:
        f = spine.pop()
        if isinstance(f, And):
            spine += (f.right, f.left)
            continue
        depth = max(depth, modal_depth(f))
        node = build(f, root, sigma0)
        if node is False or (node is not True and not propagation.need(node)):
            return False, depth
        nodes.append(node)
    return mk("and", nodes), depth


def _sat_assignment(root_node, budget: Budget) -> dict | None:
    """Backtracking search for a satisfying assignment of the ground atoms;
    None at once for False, a frame that grounding refuted."""
    if root_node is True:
        return {}
    if root_node is False:
        return None
    assign: dict[tuple, bool] = {}

    def eval3(node, memo):
        got = memo.get(id(node))
        if got is not None:
            return got
        budget.spend()
        kind = node[0]
        if kind == "lit":
            val = assign.get(node[2])
            result = (None, node[2]) if val is None else (val == node[1], None)
        else:
            absorbing = kind == "or"  # a true child decides an or-node
            value, unknown = not absorbing, None
            for child in node[1]:
                cval, cunk = eval3(child, memo)
                if cval is absorbing:
                    value, unknown = absorbing, None
                    break
                if cval is None:
                    value = None
                    if unknown is None:
                        unknown = cunk
            result = (value, unknown)
        memo[id(node)] = result
        return result

    def search() -> dict | None:
        value, unknown = eval3(root_node, {})
        if value is True:
            return dict(assign)
        if value is False:
            return None
        for choice in (False, True):
            assign[unknown] = choice
            found = search()
            if found is not None:
                return found
            del assign[unknown]
        return None

    return search()


def require_semantics(semantics: str) -> None:
    """Raise ArgumentError unless semantics names one of SEMANTICS."""
    if semantics not in SEMANTICS:
        raise ArgumentError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")


def enumerate_sat(formula: Formula, max_worlds: int, max_domain: int,
                  semantics: str = "increasing",
                  budget: int | None = None) -> EnumerationResult | None:
    """First bounded model of the formula in deterministic search order.

    The formula is normalized with cleanse(to_nnf(.)) and evaluated at world
    "w0" under the identity assignment on its free variables, whose names
    therefore become domain elements.  A max_worlds, max_domain or budget
    below 1 raises BfomlError, and an unknown semantics ArgumentError.
    Search order: number of worlds, then domain size, then edge sets, then
    local-domain maps (increasing semantics only; constant semantics fixes
    them), then interpretations.  Edge sets with a world more than the
    formula's modal depth steps from the root are skipped, and so is every
    pass with more than one world when that depth is 0; neither changes the
    first model found, only the budget spent to reach it; nor does dropping
    a frame that propagation refutes while it is ground.  A frame is not
    ground when it agrees with a frame already refuted in this call on all
    that the refutation read; it spends what that refutation spent.  Domain
    elements are named only as far as the passes reach.  A formula nested
    too deeply for grounding or the propositional search raises
    ResourceLimitError; the conjuncts of a top-level conjunction are ground
    one at a time, so only the nesting inside each one counts.
    """
    require_semantics(semantics)
    require_at_least_one("max_worlds", max_worlds)
    require_at_least_one("max_domain", max_domain)
    tracker = Budget(budget, "bounded model search ran out of budget; result is inconclusive")

    psi = cleanse(to_nnf(formula))
    fv_names = [str(v) for v in sorted(free_vars(psi), key=var_key)]
    sigma0 = identity_assignment(free_vars(psi))
    if len(fv_names) > max_domain:
        return None

    # Named as each pass needs them: max_domain may be far above the
    # domain size at which the search answers.
    fillers = (f"d{k}" for k in count() if f"d{k}" not in fv_names)
    pool = list(fv_names)
    refuted: dict[int, dict[tuple, int]] = {}

    depth = modal_depth(psi)
    for n_worlds in range(1, max_worlds + 1):
        reach = min(depth, n_worlds - 1)
        if n_worlds > 1 and reach == 0:
            break
        worlds = [f"w{i}" for i in range(n_worlds)]
        for n_dom in range(max(1, len(fv_names)), max_domain + 1):
            while len(pool) < n_dom:
                pool.append(next(fillers))
            elements = pool[:n_dom]
            shape = (n_worlds, n_dom, semantics, len(fv_names), reach)
            for succs, delta in _frames(shape, tracker):
                result = _try_frame(psi, worlds, elements, succs, delta,
                                    sigma0, tracker, refuted)
                if result is not None:
                    return result
    return None


# The frame log of each shape (n_worlds, n_dom, semantics, n_free[, reach]):
# a list of (charge, succs, delta) entries and the generator that extends it.
_FRAME_LOGS: dict[tuple, tuple[list, object]] = {}
# Per world count, one succs tuple for each edge set that some log holds:
# shapes with the same world count walk the same edge sets.
_SHARED_SUCCS: dict[int, dict[tuple, tuple]] = {}


def _frames(shape: tuple, tracker: Budget):
    """The canonical reachable frames of a shape as (succs, delta), in order.

    Reads the shape's log, extending it from _frame_search when this call
    reads past its end, and spends each entry's charge before yielding its
    frame as stored.  An entry's charge is the number of unit spends the
    enumeration makes after the previous frame (or the start of the shape)
    up to this one: one per edge set and one per local-domain map tried;
    the trailing entry's charge covers the spends after the last frame.

    Replay is exact.  Between two frames the enumeration only spends and
    runs pure tests, so starting from a remaining budget r, its unit spends
    raise ResourceLimitError (whose message is fixed) somewhere in the gap
    if and only if r - charge < 0, which is when the bulk spend raises.
    Either way the error leaves enumerate_sat before the next frame is
    tried, and the budget left in the discarded tracker is never read.
    Otherwise both reach the frame with r - charge left for its grounding
    and search.  By induction over the frames, a replay returns the same
    model, None or ResourceLimitError as the enumeration at every budget.
    Filling the log may run past the point where unit spending would have
    stopped, but only up to the next frame.

    If extending the log raises, the shape's log is dropped, so a later
    call starts a new enumeration instead of reading a dead generator.
    """
    log = _FRAME_LOGS.get(shape)
    if log is None:
        log = _FRAME_LOGS[shape] = ([], _frame_search(*shape))
    entries, source = log
    for index in count():
        if index == len(entries):
            try:
                entries.append(next(source))
            except BaseException:
                if _FRAME_LOGS.get(shape) is log:
                    del _FRAME_LOGS[shape]
                raise
        charge, succs, delta = entries[index]
        tracker.spend(charge)
        if succs is None:
            return
        yield succs, delta


def _frame_search(n_worlds: int, n_dom: int, semantics: str, n_free: int,
                  reach: int | None = None):
    """The enumeration that _frames replays, as log entries in search order.

    Yields (charge, succs, delta) per canonical frame whose every world is
    at most reach steps from world 0 (reachable at all when reach is None),
    then (charge, None, None).  succs holds each world's successor indices
    as a sorted row, one of the 2**n_worlds rows in the order of their bit
    masks; world 0's row varies fastest, so edge sets come in the order of
    the n_worlds**2-bit mask whose bit i * n_worlds + j stands for the edge
    (i, j).  delta gives each world's local domain as a set of element
    indices, the first n_free of which the root must hold.  Equal deltas are
    one shared tuple, and equal succs one tuple across the shapes with the
    same number of worlds.
    """
    full = frozenset(range(n_dom))
    nonempty = [frozenset(b for b in range(n_dom) if mask >> b & 1)
                for mask in range(1, 1 << n_dom)]
    root_domains = [s for s in nonempty if s >= frozenset(range(n_free))]
    rows = [tuple(j for j in range(n_worlds) if mask >> j & 1)
            for mask in range(1 << n_worlds)]
    shared: dict[tuple[frozenset[int], ...], tuple[frozenset[int], ...]] = {}
    shared_succs = _SHARED_SUCCS.setdefault(n_worlds, {})
    charge = 0
    for reversed_succs in product(rows, repeat=n_worlds):
        succs = reversed_succs[::-1]
        charge += 1
        if not _reachable_from_root(succs, reach):
            continue
        if semantics == "constant":
            delta_choices = [(full,) * n_worlds]
        else:
            delta_choices = (
                d for d in product(root_domains, *[nonempty] * (n_worlds - 1))
                if all(d[i] <= d[j] for i, row in enumerate(succs) for j in row))
        for delta in delta_choices:
            charge += 1
            if not _is_canonical(succs, delta):
                continue
            yield charge, shared_succs.setdefault(succs, succs), shared.setdefault(delta, delta)
            charge = 0
    yield charge, None, None


def _try_frame(psi, worlds, elements, succs, delta, sigma0, tracker, refuted):
    """The model of psi on this frame that the search finds first, or None.

    refuted is the call's table of refuted views: for each depth m, the
    view at m of every frame that grounding refuted with conjuncts of modal
    depth at most m, mapped to the budget that refuting it spent.  A frame
    whose view at one of the table's depths is in the table is refuted again
    for exactly that budget, without being named or ground.
    """
    for depth, views in refuted.items():
        charge = views.get(_view(succs, delta, depth))
        if charge is not None:
            tracker.spend(charge)
            return None
    n = len(worlds)
    delta_names = {worlds[i]: tuple(sorted(elements[b] for b in delta[i]))
                   for i in range(n)}
    succ_names = {worlds[i]: tuple(sorted(worlds[j] for j in row))
                  for i, row in enumerate(succs)}
    spent = tracker.spent
    # Grounding and the propositional search recurse once per nesting level
    # of a top-level conjunct or of the ground DAG, and once per decided atom.
    try:
        root_node, depth = _ground(psi, worlds[0], sigma0, delta_names, succ_names, tracker)
        assignment = _sat_assignment(root_node, tracker)
    except RecursionError:
        raise ResourceLimitError(
            "bounded model search nested too deeply; result is inconclusive") from None
    if assignment is None:
        if root_node is False:
            refuted.setdefault(depth, {})[_view(succs, delta, depth)] = tracker.spent - spent
        return None
    rho: dict[str, dict[str, set[tuple[str, ...]]]] = {}
    for (world, pred, args), value in assignment.items():
        if value:
            rho.setdefault(world, {}).setdefault(pred, set()).add(args)
    model = KripkeModel.create(
        worlds=worlds,
        domain=elements,
        edges=[(worlds[i], worlds[j]) for i, row in enumerate(succs) for j in row],
        local={worlds[i]: {elements[b] for b in delta[i]} for i in range(n)},
        rho=rho,
    )
    if not check(model, worlds[0], sigma0, psi):
        raise InternalSolverError(
            "oracle model failed independent re-evaluation; grounding and "
            "semantics disagree")
    return EnumerationResult(model=model, root=worlds[0])
