"""Bounded brute-force satisfiability oracle.

Searches every model shape up to the given world and domain bounds for one
satisfying the formula at a designated root under the identity assignment on
its free variables.  Used as an independent check on the tableau procedures,
so it shares no code with them: frames (worlds, edges, local domains) are
enumerated exhaustively, and for each frame the existence of a satisfying
interpretation is decided by grounding the formula into a propositional
constraint over (world, predicate, tuple) atoms and running a small
backtracking SAT search on it.

Frames are pruned in two sound ways: every world must be reachable from the
root (truth at the root only depends on the generated submodel), and frames
that are isomorphic under a permutation of the non-root worlds are visited
once.  Within the bounds the search is exhaustive up to these reductions, so
``None`` means no bounded model exists.  A work budget caps runtime and
raises ResourceLimitError when exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import InternalSolverError, ResourceLimitError
from .formulas import (And, Atom, Bot, Bundle, Formula, Mod, Not, Or, Quant,
                       Top, Var, cleanse, free_vars, to_nnf, var_key)
from .kripke import KripkeModel, check, identity_assignment
from .limits import resolve_budget

SEMANTICS = ("increasing", "constant")


@dataclass(frozen=True)
class EnumerationResult:
    model: KripkeModel
    root: str


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise ResourceLimitError(
                "bounded model search ran out of budget; result is inconclusive")


def _reachable_from_root(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        w = frontier.pop()
        for (a, b) in edges:
            if a == w and b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen) == n


def _is_canonical(n: int, edges: frozenset[tuple[int, int]],
                  delta: tuple[frozenset[int], ...]) -> bool:
    """Keep one frame per orbit of the root-fixing world permutations."""
    if n <= 2:
        return True
    sig = (tuple(sorted(edges)), tuple(tuple(sorted(s)) for s in delta))
    for perm in permutations(range(1, n)):
        p = (0,) + perm
        p_edges = tuple(sorted((p[a], p[b]) for a, b in edges))
        p_delta: list[tuple[int, ...]] = [()] * n
        for i in range(n):
            p_delta[p[i]] = tuple(sorted(delta[i]))
        cand = (p_edges, tuple(p_delta))
        if cand < sig:
            return False
    return True


def _ground(formula: Formula, root: str, sigma0: dict[Var, str],
            delta: dict[str, tuple[str, ...]], succs: dict[str, tuple[str, ...]],
            budget: _Budget):
    """Expand the NNF formula over a fixed frame into a propositional DAG.

    Nodes are True, False, ("lit", sign, atom) with atom = (world, pred,
    elements), ("and", children) or ("or", children).  Sharing comes from a
    memo on (subformula, world, relevant bindings).
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

    return build(formula, root, sigma0)


def _sat_assignment(root_node, budget: _Budget) -> dict | None:
    """Backtracking search for a satisfying assignment of the ground atoms."""
    if root_node is True:
        return {}
    if root_node is False:
        return None
    assign: dict[tuple, bool] = {}

    def eval3(node, memo):
        if node is True or node is False:
            return node, None
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


def enumerate_sat(formula: Formula, max_worlds: int, max_domain: int,
                  semantics: str = "increasing",
                  budget: int | None = None) -> EnumerationResult | None:
    """First bounded model of the formula in deterministic search order.

    The formula is normalized with cleanse(to_nnf(.)) and evaluated at world
    "w0" under the identity assignment on its free variables, whose names
    therefore become domain elements.  Search order: number of worlds, then
    domain size, then edge sets, then local-domain maps (increasing semantics
    only; constant semantics fixes them), then interpretations.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
    tracker = _Budget(resolve_budget(budget))

    psi = cleanse(to_nnf(formula))
    fv_names = [str(v) for v in sorted(free_vars(psi), key=var_key)]
    sigma0 = identity_assignment(free_vars(psi))
    if len(fv_names) > max_domain:
        return None

    fillers = []
    k = 0
    while len(fillers) < max_domain:
        name = f"d{k}"
        if name not in fv_names:
            fillers.append(name)
        k += 1

    for n_worlds in range(1, max_worlds + 1):
        worlds = [f"w{i}" for i in range(n_worlds)]
        for n_dom in range(max(1, len(fv_names)), max_domain + 1):
            elements = (fv_names + fillers)[:n_dom]
            full = frozenset(range(n_dom))
            nonempty = [frozenset(b for b in range(n_dom) if mask >> b & 1)
                        for mask in range(1, 1 << n_dom)]
            root_required = frozenset(range(len(fv_names)))
            for edge_mask in range(1 << (n_worlds * n_worlds)):
                tracker.spend()
                edges = frozenset(
                    (i, j)
                    for i in range(n_worlds) for j in range(n_worlds)
                    if edge_mask >> (i * n_worlds + j) & 1)
                if not _reachable_from_root(n_worlds, edges):
                    continue
                if semantics == "constant":
                    delta_choices = [tuple([full] * n_worlds)]
                else:
                    delta_choices = (
                        d for d in product(nonempty, repeat=n_worlds)
                        if d[0] >= root_required
                        and all(d[i] <= d[j] for i, j in edges))
                for delta in delta_choices:
                    tracker.spend()
                    if not _is_canonical(n_worlds, edges, delta):
                        continue
                    result = _try_frame(psi, worlds, elements, edges, delta,
                                        sigma0, tracker)
                    if result is not None:
                        return result
    return None


def _try_frame(psi, worlds, elements, edges, delta, sigma0, tracker):
    n = len(worlds)
    delta_names = {worlds[i]: tuple(sorted(elements[b] for b in delta[i]))
                   for i in range(n)}
    succs = {w: tuple(sorted(worlds[j] for i, j in edges if worlds[i] == w))
             for w in worlds}
    root_node = _ground(psi, worlds[0], sigma0, delta_names, succs, tracker)
    assignment = _sat_assignment(root_node, tracker)
    if assignment is None:
        return None
    rho: dict[str, dict[str, set[tuple[str, ...]]]] = {}
    for (world, pred, args), value in assignment.items():
        if value:
            rho.setdefault(world, {}).setdefault(pred, set()).add(args)
    model = KripkeModel.create(
        worlds=worlds,
        domain=elements,
        edges=[(worlds[i], worlds[j]) for i, j in edges],
        local={worlds[i]: {elements[b] for b in delta[i]} for i in range(n)},
        rho=rho,
    )
    violation = model.validate()
    if violation is not None:
        raise InternalSolverError(f"oracle produced an invalid model: {violation}")
    if not check(model, worlds[0], sigma0, psi):
        raise InternalSolverError(
            "oracle model failed independent re-evaluation; grounding and "
            "semantics disagree")
    return EnumerationResult(model=model, root=worlds[0])
