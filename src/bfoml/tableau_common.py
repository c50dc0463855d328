"""The tableau engine that both decision procedures run on.

It holds the tableau types, the or rule, the depth-first search and the
model read-off.  A procedure supplies its label constructor, its branching
rule and, in a ``Search`` subclass, the local domain a world records.  A
label is checked once, when it is built; building it splits its
conjunctions, which is sound because the and rule is invertible.

The search solves each distinct label once and shares its outcome, so an
open completion is a DAG: a node may have several parents.  The read-off
walks each node once and merges worlds that have the same local domain,
facts and successors, so the model is a DAG whose equal worlds are merged.
A label met again spends one budget unit, as any other label does.
A search's ``memo``, dropped with it when the decision returns, computes
each branching step once per (label's bundles in label order, tracked set),
on which alone the step depends, and each bundle body instance once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .errors import InternalSolverError, ResourceLimitError
from .formulas import (And, Atom, Bot, Bundle, Formula, Mod, Not, Or, Quant,
                       Top, Var, boolean_connective_count, bound_vars,
                       formula_key, free_vars, is_literal, modal_depth, var_key)
from .kripke import KripkeModel
from .limits import Budget


class Verdict(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass(frozen=True)
class TableauNode:
    """A world of an open tableau completion.

    Carries the formula set at the last node of the world (the one a
    branching rule fired on, or the final leaf), the local-domain variables
    extracted from it, and the child worlds created by branching.  A node the
    search reused is shared by several parents.
    """

    gamma: tuple[Formula, ...]
    dom: frozenset[Var]
    children: tuple["TableauNode", ...]


@dataclass(frozen=True)
class DecisionResult:
    verdict: Verdict
    model: KripkeModel | None
    root: str | None
    assignment: dict[Var, str] | None
    normalized: Formula
    nodes_expanded: int
    max_recursion_depth: int
    tableau: TableauNode | None
    trace: tuple[str, ...] | None

    @property
    def is_sat(self) -> bool:
        return self.verdict is Verdict.SAT


@dataclass(frozen=True)
class Label:
    """(canonical formula set, tracked variables: witnesses or used ones).

    A label's outcome depends on nothing else, so it is the search's memo key.
    Building it checks that each formula is an or, a bundle, F or a literal,
    and derives its termination measure and its hash once, next to the fields.
    """

    gamma: tuple[Formula, ...]
    vars: frozenset[Var]

    def __post_init__(self):
        for f in self.gamma:
            if not (isinstance(f, (Or, Bundle, Bot)) or is_literal(f)):
                raise InternalSolverError(
                    f"label holds a formula outside the NNF grammar: {f}")
        object.__setattr__(self, "measure", label_measure(self.gamma))
        object.__setattr__(self, "_hash", hash((self.gamma, self.vars)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class RuleApplication:
    rule: str  # "or" | "br"
    children: tuple[Label, ...]
    vars: frozenset[Var] | None = None  # on "br", the premise's enlarged tracked set


def canonical_gamma(formulas) -> tuple[Formula, ...]:
    """Split each and, deduplicate, drop T (it never clashes), order canonically."""
    todo, out = list(formulas), {}
    while todo:
        f = todo.pop()
        if isinstance(f, And):
            todo += (f.left, f.right)
        elif not isinstance(f, Top):
            out[formula_key(f)] = f
    return tuple(out[k] for k in sorted(out))


def find_clash(gamma: tuple[Formula, ...]) -> str | None:
    """F in the label, or a literal next to its negation, closes the branch."""
    positive: set[tuple[str, tuple[Var, ...]]] = set()
    negative: set[tuple[str, tuple[Var, ...]]] = set()
    for f in gamma:
        if isinstance(f, Bot):
            return "F"
        if isinstance(f, Atom):
            positive.add((f.pred.name, f.args))
        elif isinstance(f, Not) and isinstance(f.body, Atom):
            negative.add((f.body.pred.name, f.body.args))
    for name, args in sorted(positive & negative, key=lambda k: (k[0], [var_key(a) for a in k[1]])):
        rendered = f"{name}({','.join(str(a) for a in args)})"
        return f"{rendered} and !{rendered}"
    return None


def apply_rule(label: Label, make, branch, memo: dict | None = None) -> RuleApplication | None:
    """Apply the first rule that fits the label; None on an open leaf.

    Branch on the leftmost or, else, when a diamond bundle is left, apply the
    procedure's ``branch(label, bundles, memo)`` once per memo (a fresh one
    without a search).  A label with neither is an open leaf: its box bundles
    hold vacuously at a world with no successor.  ``make(formulas, tracked)``
    builds a child label; ``bundles`` maps each (quantifier, modality) pair
    to the label's bundles of that kind, in label order.
    """
    gamma = label.gamma
    for i, f in enumerate(gamma):
        if isinstance(f, Or):
            rest = gamma[:i] + gamma[i + 1:]
            return RuleApplication("or", (make(rest + (f.left,), label.vars),
                                          make(rest + (f.right,), label.vars)))
    found = tuple(f for f in gamma if isinstance(f, Bundle))
    if not any(b.mod is Mod.DIAMOND for b in found):
        return None
    memo = {} if memo is None else memo
    app = memo.get((found, label.vars))
    if app is None:
        bundles: defaultdict[tuple[Quant, Mod], list[Bundle]] = defaultdict(list)
        for b in found:
            bundles[b.quant, b.mod].append(b)
        app = memo[found, label.vars] = branch(label, bundles, memo)
    return app


def instantiate(memo: dict, substitute, bundle: Bundle, y: Var) -> Formula:
    """The bundle's body with y for its variable, once per memo; ``substitute``
    is the caller's module-level name for it, which bench/tracing.py rebinds."""
    key = (bundle.body, y, bundle.var)
    body = memo.get(key)
    if body is None:
        body = memo[key] = substitute(*key)
    return body


def label_measure(gamma: tuple[Formula, ...]) -> tuple[int, int]:
    """(max bundle nesting, total boolean connectives).

    Every rule application strictly decreases this lexicographically: the
    or rule peels one connective without raising nesting, and a branching
    step drops the maximum nesting by at least one even though instantiation
    may duplicate boolean structure.
    """
    rank = max((modal_depth(f) for f in gamma), default=0)
    bools = sum(boolean_connective_count(f) for f in gamma)
    return (rank, bools)


def assert_measure_decreases(premise: Label, child: Label) -> None:
    """The child label's measure lies strictly below the premise's measure."""
    if child.measure >= premise.measure:
        raise InternalSolverError(
            f"termination measure failed to decrease: {premise.measure} -> {child.measure}")


def assert_vars_only_free(gamma: tuple[Formula, ...], tracked: frozenset[Var]) -> None:
    """Tracked variables may occur in label formulas only in free positions."""
    for f in gamma:
        if not bound_vars(f).isdisjoint(tracked):
            names = ", ".join(str(v) for v in sorted(bound_vars(f) & tracked, key=var_key))
            raise InternalSolverError(
                f"cleanliness violated: {names} bound inside label formula {f}")


def assert_free_vars_tracked(gamma: tuple[Formula, ...], tracked: frozenset[Var]) -> None:
    for f in gamma:
        if not free_vars(f) <= tracked:
            names = ", ".join(str(v) for v in sorted(free_vars(f) - tracked, key=var_key))
            raise InternalSolverError(
                f"label formula {f} has untracked free variables {names}")


class Search:
    """Depth-first search for an open completion, one budget unit per label.

    Each rule application is checked against the termination measure.  "or"
    tries its children until one is open, and "br" needs every child open.
    Subclasses set ``letter``, the trace's name for the tracked set,
    implement ``expand`` as one ``apply_rule`` call, and may override
    ``local_domain``.

    Each distinct label is solved once per search: the outcome of every label
    that ``solve`` is called on, an open completion or None, is kept.  The
    world's search-path name only labels trace lines: an "or" child keeps its
    premise's name and the i-th "br" child of world w is "w.i".  A label met
    again spends one budget unit, writes one trace line naming the world that
    first solved it, and shares that world's completion, so a completion is a
    DAG.
    """

    letter: str

    def __init__(self, budget: int | None, tracing: bool):
        self.budget = Budget(budget, "tableau node budget exhausted")
        self.max_depth = 0
        self.trace: list[str] | None = [] if tracing else None
        # label -> (world that solved it, its outcome)
        self.solved: dict[Label, tuple[str, TableauNode | None]] = {}
        self.memo: dict = {}

    def expand(self, label: Label) -> RuleApplication | None:
        raise NotImplementedError

    def local_domain(self, tracked: frozenset[Var]) -> frozenset[Var]:
        """The variables a world records, given its tracked set."""
        return tracked

    def emit(self, depth: int, world: str, label: Label, note: str) -> None:
        if self.trace is not None:
            gamma = ", ".join(formula_key(f) for f in label.gamma)
            tracked = ",".join(str(v) for v in sorted(label.vars, key=var_key))
            self.trace.append(f"{'  ' * (depth - 1)}{world} [{note}] "
                              f"Γ={{{gamma}}} {self.letter}={{{tracked}}}")

    def run(self, root: Label) -> TableauNode | None:
        """Solve the root label as world "r"; a search too deep for the Python
        stack (two frames per nested "or" or "br" step) is a resource limit."""
        try:
            return self.solve(root, "r", 1)
        except RecursionError:
            raise ResourceLimitError("tableau search nested too deeply") from None

    def solve(self, label: Label, world: str, depth: int) -> TableauNode | None:
        self.max_depth = max(self.max_depth, depth)
        seen = self.solved.get(label)
        if seen is not None:
            self.budget.spend()
            first, node = seen
            outcome = "closed" if node is None else "open"
            self.emit(depth, world, label, f"reuses {first}, {outcome}")
            return node
        node = self._solve_unseen(label, world, depth)
        self.solved[label] = (world, node)
        return node

    def _solve_unseen(self, label: Label, world: str, depth: int) -> TableauNode | None:
        self.budget.spend()
        clash = find_clash(label.gamma)
        if clash is not None:
            self.emit(depth, world, label, f"closed: {clash}")
            return None
        app = self.expand(label)
        if app is None:
            self.emit(depth, world, label, "open leaf")
            return TableauNode(label.gamma, self.local_domain(label.vars), ())
        for child in app.children:
            assert_measure_decreases(label, child)
        self.emit(depth, world, label, app.rule)
        if app.rule == "or":
            for child in app.children:
                node = self.solve(child, world, depth + 1)
                if node is not None:
                    return node
            return None
        kids = []
        for i, child in enumerate(app.children):
            node = self.solve(child, f"{world}.{i}", depth + 1)
            if node is None:
                return None
            kids.append(node)
        return TableauNode(label.gamma, self.local_domain(app.vars), tuple(kids))

    def result(self, theta: Formula, completion: TableauNode | None = None,
               model: KripkeModel | None = None,
               assignment: dict[Var, str] | None = None) -> DecisionResult:
        """UNSAT without a completion, else SAT with its verified model at "r"."""
        trace = tuple(self.trace) if self.trace is not None else None
        verdict = Verdict.UNSAT if completion is None else Verdict.SAT
        return DecisionResult(verdict, model, None if model is None else "r", assignment,
                              theta, self.budget.spent, self.max_depth, completion, trace)


def read_model(tableau: TableauNode) -> KripkeModel:
    """Read a model off an open completion, which may share nodes.

    Each distinct node is walked once, depth first, and named by the first
    path that reaches it: the root is "r" and the i-th child of world w is
    "w.i", so a completion that is a tree keeps its search-path names.  A
    world's local domain is the names of its recorded variables, built once
    per distinct set, and a positive literal at its last label becomes a
    fact there.  Bottom up, a world with the same local domain, facts and
    successor worlds as one named before it is merged into that one.  The
    merge is the identity on elements and maps successors onto successors,
    so it is a bounded morphism and every formula keeps its truth value
    (Blackburn, de Rijke & Venema, *Modal Logic*, 2001, ch. 2).  Merged
    worlds have equal local domains, which therefore still grow along every
    edge.  The domain is the union of the local domains.
    """
    edges: list[tuple[str, str]] = []
    local: dict[str, frozenset[str]] = {}
    names: dict[frozenset[Var], frozenset[str]] = {}
    rho: dict[str, dict[str, set[tuple[str, ...]]]] = {}
    world_of: dict[int, str] = {}  # node identity -> its world
    merged: dict[tuple, str] = {}  # (domain, atoms, successors) -> world

    def walk(node: TableauNode, name: str) -> str:
        world = world_of.get(id(node))
        if world is not None:
            return world
        succs = frozenset([walk(child, f"{name}.{i}") for i, child in enumerate(node.children)])
        atoms = frozenset([f for f in node.gamma if isinstance(f, Atom)])
        world = merged.setdefault((node.dom, atoms, succs), name)
        if world == name:
            local[name] = names.get(node.dom)
            if local[name] is None:
                local[name] = names[node.dom] = frozenset(str(v) for v in node.dom)
            edges.extend((name, v) for v in succs)
            for f in atoms:
                rho.setdefault(name, {}).setdefault(f.pred.name, set()).add(
                    tuple(str(a) for a in f.args))
        world_of[id(node)] = world
        return world

    walk(tableau, "r")
    return KripkeModel.create(local, frozenset().union(*local.values()), edges, local, rho)
