"""Kripke models with local domains, validation, and the satisfaction relation.

A model carries a finite set of worlds, a finite global domain, an
accessibility relation, a nonempty local domain per world that grows along
accessibility edges, and a per-world interpretation of every predicate.
Worlds and domain elements are plain strings.  A model checks these rules
when it is built (``validate`` lists them) and raises ``InvalidModelError``
on the first one broken, so every model that exists is valid and ``check``
trusts it.  It is read-only once built: its fields cannot be reassigned, and
``local`` and ``rho`` are read-only mappings, so a model is not hashable but
can be shared across threads.  Nothing here mutates an assignment.

The JSON exchange format (used by the CLI and emitted by the solvers)::

    {"worlds": [...], "domain": [...], "edges": [[w, v], ...],
     "local": {w: [...]}, "rho": {w: {P: [[e, ...], ...]}}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import (InvalidModelError, IrrelevantAssignmentError, ModelFormatError,
                     UnboundVariableError, UnknownWorldError)
from .formulas import (And, Atom, Bot, Bundle, Formula, Implies, Mod, Not, Or,
                       Quant, Top, Var, free_vars, var_key)

Assignment = Mapping[Var, str]


@dataclass(frozen=True)
class ModelViolation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class KripkeModel:
    worlds: tuple[str, ...]
    domain: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    local: Mapping[str, frozenset[str]]
    rho: Mapping[str, Mapping[str, frozenset[tuple[str, ...]]]]
    _succ: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Keep read-only copies of local and rho, then refuse a broken rule."""
        object.__setattr__(self, "local", MappingProxyType(dict(self.local)))
        object.__setattr__(self, "rho", MappingProxyType(
            {w: MappingProxyType(dict(preds)) for w, preds in self.rho.items()}))
        violation = validate(self)
        if violation is not None:
            raise InvalidModelError(violation)
        succ: dict[str, list[str]] = {w: [] for w in self.worlds}
        for w, v in sorted(self.edges):
            succ[w].append(v)
        object.__setattr__(self, "_succ", {w: tuple(vs) for w, vs in succ.items()})

    def __reduce__(self):
        # A mapping proxy does not pickle, so a pickle rebuilds the model.
        return (KripkeModel.create, (self.worlds, self.domain, self.edges, dict(self.local),
                                     {w: dict(preds) for w, preds in self.rho.items()}))

    @classmethod
    def create(cls, worlds, domain, edges, local, rho) -> "KripkeModel":
        """Normalize arbitrary iterables into the canonical representation.

        Empty interpretation entries are dropped so that structurally equal
        models compare equal regardless of how they were assembled.
        """
        facts: dict[str, dict[str, frozenset[tuple[str, ...]]]] = {}
        for w, preds in rho.items():
            kept = {p: frozenset(tuple(t) for t in ts) for p, ts in preds.items() if ts}
            if kept:
                facts[w] = kept
        return cls(
            worlds=tuple(sorted(set(worlds))),
            domain=tuple(sorted(set(domain))),
            edges=frozenset((w, v) for w, v in edges),
            local={w: frozenset(es) for w, es in local.items()},
            rho=facts,
        )

    def successors(self, world: str) -> tuple[str, ...]:
        """The worlds the given world sees; UnknownWorldError if it is not a world."""
        try:
            return self._succ[world]
        except KeyError:
            raise UnknownWorldError(f"world {world!r} is not in the model") from None

    @property
    def is_constant_domain(self) -> bool:
        full = frozenset(self.domain)
        return all(self.local[w] == full for w in self.worlds)

    def facts(self, world: str, predicate: str) -> frozenset[tuple[str, ...]]:
        return self.rho.get(world, {}).get(predicate, frozenset())

    def to_json_dict(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "domain": list(self.domain),
            "edges": [list(e) for e in sorted(self.edges)],
            "local": {w: sorted(self.local[w]) for w in self.worlds},
            "rho": {w: {p: sorted(list(t) for t in ts)
                        for p, ts in sorted(self.rho.get(w, {}).items())}
                    for w in self.worlds},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def decode_json(text: str) -> object:
    """The JSON document in text; the one JSON decoding of both model readers."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc


def is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def is_pair_list(value: object) -> bool:
    """A list of two-string lists, as model edges and FO(R) pairs are written."""
    return isinstance(value, list) and all(is_string_list(p) and len(p) == 2 for p in value)


def model_from_json_dict(doc: object) -> KripkeModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    keys = ("worlds", "domain", "edges", "local", "rho")
    for key in keys:
        if key not in doc:
            raise ModelFormatError(f"model document missing key {key!r}")
    worlds, domain, edges, local, rho = (doc[key] for key in keys)
    if not is_string_list(worlds):
        raise ModelFormatError("worlds must be a list of strings")
    if not is_string_list(domain):
        raise ModelFormatError("domain must be a list of strings")
    if not is_pair_list(edges):
        raise ModelFormatError("edges must be a list of [world, world] pairs")
    if not (isinstance(local, dict) and all(map(is_string_list, local.values()))):
        raise ModelFormatError("local must map worlds to lists of elements")
    if not isinstance(rho, dict):
        raise ModelFormatError("rho must be an object")
    for w, preds in rho.items():
        if not isinstance(preds, dict):
            raise ModelFormatError(f"rho[{w!r}] must be an object")
        for p, tuples in preds.items():
            if not (isinstance(tuples, list) and all(map(is_string_list, tuples))):
                raise ModelFormatError(f"rho[{w!r}][{p!r}] must be a list of element lists")
    return KripkeModel.create(worlds, domain, [(e[0], e[1]) for e in edges], local, rho)


def model_loads(text: str) -> KripkeModel:
    return model_from_json_dict(decode_json(text))


def validate(model: KripkeModel) -> ModelViolation | None:
    """Return the first violated structural invariant, or None.

    These are the rules a model checks when it is built, so this returns
    None for every model that exists.  Check order: nonempty worlds and
    domain, local-domain well-formedness (known worlds, subsets of the
    domain, nonempty), edge endpoints, domain growth along edges, then
    interpretation tuples (elements drawn from the domain, one arity per
    predicate name).
    """
    if not model.worlds:
        return ModelViolation("empty-worlds", "-", "a model needs at least one world")
    if not model.domain:
        return ModelViolation("empty-domain", "-", "a model needs a nonempty domain")
    world_set = set(model.worlds)
    dom = frozenset(model.domain)
    for w in sorted(model.local):
        if w not in world_set:
            return ModelViolation("unknown-world", w, "local domain given for unknown world")
    for w in model.worlds:
        if w not in model.local:
            return ModelViolation("missing-local", w, "world has no local domain")
        if not model.local[w] <= dom:
            extra = sorted(model.local[w] - dom)
            return ModelViolation("local-outside-domain", w,
                                  f"local domain contains unknown elements {extra}")
        if not model.local[w]:
            return ModelViolation("empty-local-domain", w, "local domain is empty")
    for w, v in sorted(model.edges):
        if w not in world_set or v not in world_set:
            return ModelViolation("unknown-world", f"({w},{v})", "edge endpoint is not a world")
    for w, v in sorted(model.edges):
        if not model.local[w] <= model.local[v]:
            missing = sorted(model.local[w] - model.local[v])
            return ModelViolation(
                "monotonicity", f"({w},{v})",
                f"local domain must not shrink along an edge; lost {missing}")
    arity: dict[str, int] = {}
    for w in sorted(model.rho):
        if w not in world_set:
            return ModelViolation("unknown-world", w, "interpretation given for unknown world")
        for p in sorted(model.rho[w]):
            for t in sorted(model.rho[w][p]):
                seen = arity.setdefault(p, len(t))
                if seen != len(t):
                    return ModelViolation(
                        "arity-inconsistent", p,
                        f"predicate interpreted at arities {seen} and {len(t)}")
                for e in t:
                    if e not in dom:
                        return ModelViolation("tuple-outside-domain", f"({w},{p})",
                                              f"tuple element {e!r} is not in the domain")
    return None


class _Evaluator:
    """Truth evaluation with bundles memoized; one instance per top-level check.

    A bundle's value is memoized on (world, node, values of its free
    variables); booleans and literals are cheap to recompute.  Each world's
    sorted local domain and successors are computed once.  ``check`` tests
    that the assignment is relevant at the root, and a bundle at w binds its
    variable to an element of w's local domain before it moves to a
    successor v.  A model refuses, when it is built, a local domain that
    shrinks along an edge.  So, by induction over the evaluation, every
    assignment met at w is relevant at w and at every successor of w: every
    assignment stays inside the local domain it is evaluated in.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self._frames: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self._memo: dict[tuple[str, int, tuple[str, ...]], bool] = {}

    def frame(self, world: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(sorted local domain, successors) of a world, computed once."""
        got = self._frames.get(world)
        if got is None:
            got = self._frames[world] = (tuple(sorted(self.model.local[world])),
                                         self.model.successors(world))
        return got

    def eval(self, world: str, sigma: dict[Var, str], f: Formula) -> bool:
        # Tested in order of frequency in NNF formulas.
        if isinstance(f, Atom):
            facts = self.model.rho.get(world)
            return facts is not None and tuple(map(sigma.__getitem__, f.args)) in facts.get(
                f.pred.name, ())
        if isinstance(f, And):
            return self.eval(world, sigma, f.left) and self.eval(world, sigma, f.right)
        if isinstance(f, Bundle):
            key = (world, id(f), tuple(map(sigma.__getitem__, free_vars(f))))
            got = self._memo.get(key)
            if got is None:
                got = self._memo[key] = self._eval_bundle(world, sigma, f)
            return got
        if isinstance(f, Not):
            # A chain of negations is walked in a loop, as formulas._nnf does.
            negated = False
            while isinstance(f, Not):
                f, negated = f.body, not negated
            return self.eval(world, sigma, f) is not negated
        if isinstance(f, Or):
            return self.eval(world, sigma, f.left) or self.eval(world, sigma, f.right)
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Implies):
            return (not self.eval(world, sigma, f.left)) or self.eval(world, sigma, f.right)
        raise TypeError(f"not a formula: {f!r}")

    def _eval_bundle(self, world: str, sigma: dict[Var, str], f: Bundle) -> bool:
        """Some (E) or every (A) element d of the local domain is such that
        the body with the bundle's variable at d holds at every successor
        (box) or at some successor (diamond).

        One copy of the assignment is rebound to each d in turn; the body's
        evaluation is finished before the next d is bound.
        """
        elements, succs = self.frame(world)
        body, box, exists = f.body, f.mod is Mod.BOX, f.quant is Quant.EXISTS
        child = dict(sigma)
        for d in elements:
            child[f.var] = d
            # A box fails at the first successor where the body is false, a
            # diamond holds at the first one where it is true.
            holds = box
            for v in succs:
                if self.eval(v, child, body) is not box:
                    holds = not box
                    break
            if holds is exists:
                return exists
        return not exists


def check(model: KripkeModel, world: str, assignment: Assignment, formula: Formula) -> bool:
    """Truth of formula at (model, world) under the given assignment.

    The model is trusted: it checked its rules when it was built.  The
    assignment must be relevant at the world (every value inside the local
    domain) and must cover every free variable of the formula.
    """
    if world not in model.local:
        raise UnknownWorldError(f"world {world!r} is not in the model")
    missing = free_vars(formula) - set(assignment)
    if missing:
        names = ", ".join(str(v) for v in sorted(missing, key=var_key))
        raise UnboundVariableError(f"assignment does not cover free variables: {names}")
    for v, e in assignment.items():
        if e not in model.local[world]:
            raise IrrelevantAssignmentError(
                f"{v} is mapped to {e!r}, which is outside the local domain of {world!r}")
    return _Evaluator(model).eval(world, dict(assignment), formula)


def identity_assignment(variables) -> dict[Var, str]:
    """Map each variable to the element named after it."""
    return {v: str(v) for v in variables}
