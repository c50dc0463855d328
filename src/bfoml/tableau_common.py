"""The tableau engine that both decision procedures run on.

It holds the label and rule-application types, the and/or/end rules, the
depth-first search and the model read-off.  A procedure supplies its label
constructor, its branching rule, and a `Search` subclass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalSolverError, ResourceLimitError
from .formulas import (And, Atom, Bot, Bundle, Formula, Mod, Not, Or, Quant,
                       Top, Var, boolean_connective_count, bound_vars,
                       formula_key, free_vars, modal_depth, var_key)
from .kripke import KripkeModel
from .limits import resolve_budget
from .results import DecisionResult, TableauNode, Verdict


@dataclass(frozen=True)
class Label:
    """(world, canonical formula set, tracked variables: witnesses or used ones)."""

    world: str
    gamma: tuple[Formula, ...]
    vars: frozenset[Var]


@dataclass(frozen=True)
class RuleApplication:
    rule: str  # "and" | "or" | "br" | "end"
    children: tuple[Label, ...]
    vars: frozenset[Var] | None = None  # on "br", the premise's enlarged tracked set


def canonical_gamma(formulas) -> tuple[Formula, ...]:
    """Deduplicate, drop T (it never clashes), and order canonically."""
    out = {formula_key(f): f for f in formulas if not isinstance(f, Top)}
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


@dataclass(frozen=True)
class Partition:
    ands: tuple[And, ...]
    ors: tuple[Or, ...]
    exists_diamond: tuple[Bundle, ...]
    exists_box: tuple[Bundle, ...]
    forall_diamond: tuple[Bundle, ...]
    forall_box: tuple[Bundle, ...]
    literals: tuple[Formula, ...]

    @property
    def can_branch(self) -> bool:
        """The boolean rules are done and a diamond bundle is left."""
        return not (self.ands or self.ors) and bool(self.exists_diamond or self.forall_diamond)


_BUNDLE_GROUP = {(Quant.EXISTS, Mod.DIAMOND): "exists_diamond",
                 (Quant.EXISTS, Mod.BOX): "exists_box",
                 (Quant.FORALL, Mod.DIAMOND): "forall_diamond",
                 (Quant.FORALL, Mod.BOX): "forall_box"}


def partition(gamma: tuple[Formula, ...]) -> Partition:
    groups: dict[str, list] = {name: [] for name in Partition.__dataclass_fields__}
    for f in gamma:
        if isinstance(f, And):
            groups["ands"].append(f)
        elif isinstance(f, Or):
            groups["ors"].append(f)
        elif isinstance(f, Bundle):
            groups[_BUNDLE_GROUP[f.quant, f.mod]].append(f)
        elif isinstance(f, (Atom, Bot)) or (isinstance(f, Not) and isinstance(f.body, Atom)):
            groups["literals"].append(f)
        else:
            raise InternalSolverError(
                f"label holds a formula outside the NNF grammar: {f}")
    return Partition(**{name: tuple(fs) for name, fs in groups.items()})


def local_rule(label: Label, part: Partition, make) -> RuleApplication | None:
    """Split the leftmost and, else branch on the leftmost or, else drop the
    box bundles; None on a finished leaf.  ``make`` builds the child labels.
    """
    rest = list(label.gamma)
    if part.ands:
        first = part.ands[0]
        rest.remove(first)
        return RuleApplication(
            "and", (make(label.world, rest + [first.left, first.right], label.vars),))
    if part.ors:
        first = part.ors[0]
        rest.remove(first)
        return RuleApplication("or", tuple(
            make(label.world, rest + [branch], label.vars)
            for branch in (first.left, first.right)))
    if part.exists_box or part.forall_box:
        return RuleApplication("end", (make(label.world, part.literals, label.vars),))
    return None


def label_measure(gamma: tuple[Formula, ...]) -> tuple[int, int]:
    """(max bundle nesting, total boolean connectives).

    Every rule application strictly decreases this lexicographically: the
    boolean rules peel one connective without raising nesting, and a
    branching or end step drops the maximum nesting by at least one even
    though instantiation may duplicate boolean structure.
    """
    rank = max((modal_depth(f) for f in gamma), default=0)
    bools = sum(boolean_connective_count(f) for f in gamma)
    return (rank, bools)


def assert_measure_decreases(premise: tuple[int, int], child: tuple[Formula, ...]) -> None:
    """The child label's measure lies strictly below the premise's measure."""
    measure = label_measure(child)
    if measure >= premise:
        raise InternalSolverError(
            f"termination measure failed to decrease: {premise} -> {measure}")


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

    Each rule application is checked against the termination measure.  "and"
    and "end" replace the label, "or" tries its children until one is open,
    and "br" needs every child open.  Subclasses set ``letter``, the trace's
    name for the tracked set, and implement ``expand``.
    """

    letter: str

    def __init__(self, budget: int | None, tracing: bool):
        self.remaining = resolve_budget(budget)
        self.nodes = 0
        self.max_depth = 0
        self.trace: list[str] | None = [] if tracing else None

    def expand(self, label: Label) -> RuleApplication | None:
        raise NotImplementedError

    def local_domain(self, tracked: frozenset[Var]) -> frozenset[Var]:
        """The variables a world records, given its tracked set."""
        return tracked

    def spend(self) -> None:
        self.nodes += 1
        self.remaining -= 1
        if self.remaining < 0:
            raise ResourceLimitError("tableau node budget exhausted")

    def emit(self, depth: int, label: Label, note: str) -> None:
        if self.trace is not None:
            gamma = ", ".join(formula_key(f) for f in label.gamma)
            tracked = ",".join(str(v) for v in sorted(label.vars, key=var_key))
            self.trace.append(f"{'  ' * (depth - 1)}{label.world} [{note}] "
                              f"Γ={{{gamma}}} {self.letter}={{{tracked}}}")

    def solve(self, label: Label, depth: int) -> TableauNode | None:
        self.max_depth = max(self.max_depth, depth)
        while True:
            self.spend()
            clash = find_clash(label.gamma)
            if clash is not None:
                self.emit(depth, label, f"closed: {clash}")
                return None
            app = self.expand(label)
            if app is None:
                self.emit(depth, label, "open leaf")
                return TableauNode(label.world, label.gamma,
                                   self.local_domain(label.vars), ())
            premise = label_measure(label.gamma)
            for child in app.children:
                assert_measure_decreases(premise, child.gamma)
            self.emit(depth, label, app.rule)
            if app.rule in ("and", "end"):
                label = app.children[0]
                continue
            if app.rule == "or":
                for child in app.children:
                    node = self.solve(child, depth + 1)
                    if node is not None:
                        return node
                return None
            kids = []
            for child in app.children:
                node = self.solve(child, depth + 1)
                if node is None:
                    return None
                kids.append(node)
            return TableauNode(label.world, label.gamma,
                               self.local_domain(app.vars), tuple(kids))

    def result(self, theta: Formula, completion: TableauNode | None = None,
               model: KripkeModel | None = None,
               assignment: dict[Var, str] | None = None) -> DecisionResult:
        """UNSAT without a completion, else SAT with its verified model at "r"."""
        trace = tuple(self.trace) if self.trace is not None else None
        verdict = Verdict.UNSAT if completion is None else Verdict.SAT
        return DecisionResult(verdict, model, None if model is None else "r", assignment,
                              theta, self.nodes, self.max_depth, completion, trace)


def read_model(tableau: TableauNode) -> KripkeModel:
    """Read a model off an open completion.

    Worlds are node names and edges follow the tree.  A world's local domain
    is the names of its recorded variables, built once per distinct set; the
    domain is their union.  A positive literal at the last label of a world
    becomes a fact there.
    """
    worlds: list[str] = []
    edges: list[tuple[str, str]] = []
    local: dict[str, frozenset[str]] = {}
    names: dict[frozenset[Var], frozenset[str]] = {}
    rho: dict[str, dict[str, set[tuple[str, ...]]]] = {}

    def walk(node: TableauNode) -> None:
        worlds.append(node.world)
        local[node.world] = names.get(node.dom)
        if local[node.world] is None:
            local[node.world] = names[node.dom] = frozenset(str(v) for v in node.dom)
        for f in node.gamma:
            if isinstance(f, Atom):
                rho.setdefault(node.world, {}).setdefault(f.pred.name, set()).add(
                    tuple(str(a) for a in f.args))
        for child in node.children:
            edges.append((node.world, child.world))
            walk(child)

    walk(tableau)
    return KripkeModel.create(worlds, frozenset().union(*names.values()), edges, local, rho)
