"""Abstract syntax and syntactic transformations for bundled first-order modal logic.

Every quantifier in the language is fused with a modality, so the only binders
are the four bundles ``E x []``, ``E x <>``, ``A x []`` and ``A x <>``.  The
universal bundles are duals: ``A x <> p`` abbreviates ``!E x [] !p`` and
``A x [] p`` abbreviates ``!E x <> !p``; the model checker nevertheless
evaluates them directly and the equivalence is property-tested.

All values here are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterator

from .errors import CaptureError


@dataclass(frozen=True)
class Var:
    """A variable: a lowercase-initial name plus an optional freshness index.

    Generated variables carry an index and render as ``x^3``; source-level
    variables normally have no index.  ``x^3`` is valid concrete syntax, so
    printing and reparsing a generated variable is lossless.
    """

    name: str
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}^{self.index}"


def var_key(v: Var) -> tuple[str, int]:
    """Total order on variables; index-free sorts before any indexed form."""
    return (v.name, -1 if v.index is None else v.index)


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int


class Quant(Enum):
    EXISTS = "E"
    FORALL = "A"


class Mod(Enum):
    BOX = "[]"
    DIAMOND = "<>"


class Fragment(Enum):
    """Which bundle pair a formula uses in NNF."""

    EXISTS_BOX = "exists-box"
    EXISTS_DIAMOND = "exists-diamond"
    FULL = "full"


class Formula:
    """Base class of all formula nodes.

    Nodes are immutable and built bottom-up, so each constructor derives the
    node's attributes (printed key, free and bound variables, modal depth,
    connective count) from its children's, and a node is complete once it is
    built.  They are kept in the node's ``__dict__`` under underscore names
    and are not dataclass fields, so ``==``, ``repr``, ``fields`` and
    ``asdict`` never see them, and a pickle carries the fields alone.  A node
    hashes by its key, which its fields determine, so equal nodes hash equal.
    The cost is that a tree of nesting depth d holds O(d**2) key characters.
    """

    __slots__ = ()

    def _derive(self, key: str, free: frozenset[Var], bound: frozenset[Var],
                depth: int, connectives: int) -> None:
        # The frozen dataclass refuses setattr; the instance dict does not.
        self.__dict__.update(_key=key, _free_vars=free, _bound_vars=bound,
                             _modal_depth=depth, _connectives=connectives)

    def __str__(self) -> str:
        return self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__dataclass_fields__)


def _node(cls):
    """A frozen dataclass formula node that hashes by its key."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Atom(Formula):
    pred: Predicate
    args: tuple[Var, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"atom {self.pred.name} given {len(self.args)} arguments, arity is {self.pred.arity}")
        key = f"{self.pred.name}({','.join(str(a) for a in self.args)})"
        self._derive(key, frozenset(self.args), frozenset(), 0, 0)


@_node
class Top(Formula):
    def __post_init__(self) -> None:
        self._derive("T", frozenset(), frozenset(), 0, 0)


@_node
class Bot(Formula):
    def __post_init__(self) -> None:
        self._derive("F", frozenset(), frozenset(), 0, 0)


@_node
class Not(Formula):
    body: Formula

    def __post_init__(self) -> None:
        b = self.body
        self._derive("!" + b._key, b._free_vars, b._bound_vars, b._modal_depth, b._connectives)


@_node
class Binary(Formula):
    """Shared constructor of the binary connectives.

    Each subclass sets ``op``, its printed symbol, as a plain class attribute
    and so not a field.
    """

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        l, r = self.left, self.right
        self._derive(f"({l._key} {self.op} {r._key})",
                     l._free_vars | r._free_vars, l._bound_vars | r._bound_vars,
                     max(l._modal_depth, r._modal_depth), 1 + l._connectives + r._connectives)


@_node
class And(Binary):
    op = "&"


@_node
class Or(Binary):
    op = "|"


@_node
class Implies(Binary):
    """Surface sugar; eliminated by to_nnf before any tableau work."""

    op = "->"


@_node
class Bundle(Formula):
    quant: Quant
    mod: Mod
    var: Var
    body: Formula

    def __post_init__(self) -> None:
        b = self.body
        self._derive(f"{self.quant.value} {self.var} {self.mod.value} {b._key}",
                     b._free_vars - {self.var}, b._bound_vars | {self.var},
                     1 + b._modal_depth, b._connectives)


TOP = Top()
BOT = Bot()


def atom(name: str, *args: str | Var) -> Atom:
    """Convenience constructor used heavily in tests."""
    vs = tuple(a if isinstance(a, Var) else Var(a) for a in args)
    return Atom(Predicate(name, len(vs)), vs)


def format_formula(f: Formula) -> str:
    """Render in the ASCII concrete syntax.  parse(format_formula(f)) == f."""
    return f._key


def formula_key(f: Formula) -> str:
    """Canonical sort key; the printed form encodes the AST injectively."""
    return f._key


def _children(g: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of g, left to right."""
    if isinstance(g, Binary):
        return (g.left, g.right)
    if isinstance(g, (Not, Bundle)):
        return (g.body,)
    if isinstance(g, (Atom, Top, Bot)):
        return ()
    raise TypeError(f"not a formula: {g!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula occurrences of f, including f itself, preorder; iterative."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += reversed(_children(g))


def free_vars(f: Formula) -> frozenset[Var]:
    """Variables with a free occurrence in f."""
    return f._free_vars


def bound_vars(f: Formula) -> frozenset[Var]:
    """Variables bound by some bundle in f."""
    return f._bound_vars


def all_vars(f: Formula) -> frozenset[Var]:
    """Every variable occurring in f, free or bound, including binder positions.

    Every atom argument is free in f or bound by an enclosing binder.
    """
    return f._free_vars | f._bound_vars


def _rebuild(g: Formula, kids: tuple[Formula, ...]) -> Formula:
    """g over the new children kids; g itself if each is g's own child.

    Callers pass tuple(map(rec, _children(g))): recursing from their own
    frame, a rewrite takes one frame per nesting level, as the parser does.
    """
    if all(k is c for k, c in zip(kids, _children(g))):
        return g
    if isinstance(g, Bundle):
        return Bundle(g.quant, g.mod, g.var, *kids)
    return type(g)(*kids)


def substitute(f: Formula, replacement: Var, target: Var) -> Formula:
    """Return f with every free occurrence of target replaced by replacement.

    Bound occurrences are untouched, and so is every subtree in which target
    is not free: it is returned itself, shared with f.  Raises CaptureError
    if a free target occurrence sits under a binder of the replacement
    variable; on the clean labels the tableaux produce this never happens,
    so a capture signals a cleanliness violation upstream.
    """
    if replacement == target:
        return f

    def rec(g: Formula) -> Formula:
        if target not in free_vars(g):
            return g
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(replacement if a == target else a for a in g.args))
        # target is free in a bundle g, so g does not bind it and it is free in the body.
        if isinstance(g, Bundle) and g.var == replacement:
            raise CaptureError(
                f"substituting {replacement} for {target} would capture it under "
                f"the binder in {format_formula(g)}")
        return _rebuild(g, tuple(map(rec, _children(g))))

    return rec(f)


_DUAL_QUANT = {Quant.EXISTS: Quant.FORALL, Quant.FORALL: Quant.EXISTS}
_DUAL_MOD = {Mod.BOX: Mod.DIAMOND, Mod.DIAMOND: Mod.BOX}
_DUAL_BINARY = {And: Or, Or: And}


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, implication eliminated.

    Equivalences used: De Morgan, double negation, !T = F, !F = T, and the
    bundle dualities (negating a bundle flips both the quantifier and the
    modality).  Every subtree already in NNF is returned as it is, shared
    with f.  Idempotent; semantic equivalence is checked against the model
    checker in the test suite.
    """
    return _nnf(f, False)


def _nnf(f: Formula, negated: bool) -> Formula:
    """NNF of f, or of !f when negated: one pass that carries the polarity."""
    if isinstance(f, Not):
        if isinstance(f.body, Atom) and not negated:
            return f
        return _nnf(f.body, not negated)
    if isinstance(f, Implies):
        # (a -> b) is (!a | b); its negation is (a & !b).
        return (And if negated else Or)(_nnf(f.left, not negated), _nnf(f.right, negated))
    kids = tuple(map(_nnf, _children(f), repeat(negated)))
    if not negated:
        return _rebuild(f, kids)
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Binary):
        return _DUAL_BINARY[type(f)](*kids)
    if isinstance(f, Bundle):
        return Bundle(_DUAL_QUANT[f.quant], _DUAL_MOD[f.mod], f.var, *kids)
    return BOT if isinstance(f, Top) else TOP


def is_nnf(f: Formula) -> bool:
    for g in subformulas(f):
        if isinstance(g, Implies):
            return False
        if isinstance(g, Not) and not isinstance(g.body, Atom):
            return False
    return True


def is_literal(f: Formula) -> bool:
    """Atom or negated atom.  T and F are handled separately by the tableaux."""
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.body, Atom))


def fresh_var(base: Var, used: set[Var] | frozenset[Var]) -> Var:
    """Smallest-index fresh variable sharing the base's name."""
    k = 1
    while Var(base.name, k) in used:
        k += 1
    return Var(base.name, k)


def fresh_like(base: Var, used: set[Var] | frozenset[Var]) -> Var:
    """base itself if unused, otherwise the smallest indexed variant."""
    if base not in used:
        return base
    return fresh_var(base, used)


def is_clean(f: Formula) -> bool:
    """No variable occurs both bound and free; binders are pairwise distinct."""
    binders = [g.var for g in subformulas(f) if isinstance(g, Bundle)]
    if len(binders) != len(set(binders)):
        return False
    return not (free_vars(f) & set(binders))


def cleanse(f: Formula) -> Formula:
    """Alpha-rename binders so the result is clean.

    Free variables are never renamed.  Binders are visited left to right and
    kept when possible; a conflicting binder is replaced by the smallest-index
    unused variant of its own name, so the output is deterministic and
    cleanse is idempotent.  Every subtree with nothing to rename is returned
    as it is, shared with f, except an atom whose bound argument is not yet
    its binder's own Var object; so an output of cleanse comes back as the
    same object.
    """
    free = free_vars(f)
    used = set(all_vars(f))
    taken: set[Var] = set()

    def rec(g: Formula, env: dict[Var, Var]) -> Formula:
        if isinstance(g, Atom):
            # By identity: bound arguments take their binder's Var, so lookups skip Var.__eq__.
            args = tuple(env.get(a, a) for a in g.args)
            return g if all(a is b for a, b in zip(args, g.args)) else Atom(g.pred, args)
        if isinstance(g, Bundle):
            v = g.var
            if v in free or v in taken:
                nv = fresh_var(v, used)
                used.add(nv)
            else:
                nv = v
            taken.add(nv)
            body = rec(g.body, {**env, v: nv})
            return g if nv is v and body is g.body else Bundle(g.quant, g.mod, nv, body)
        return _rebuild(g, tuple(map(rec, _children(g), repeat(env))))

    return rec(f, {})


def modal_depth(f: Formula) -> int:
    """Maximum bundle-nesting depth."""
    return f._modal_depth


def boolean_connective_count(f: Formula) -> int:
    """Number of &, | and -> nodes; literal negation does not count."""
    return f._connectives


def ast_size(f: Formula) -> int:
    """Node count including variable occurrences and binder positions."""
    size = 0
    for g in subformulas(f):
        size += 1
        if isinstance(g, Atom):
            size += len(g.args)
        elif isinstance(g, Bundle):
            size += 1
    return size


def exists_box_vars(f: Formula) -> frozenset[Var]:
    """Variables bound by an E-box bundle anywhere in f."""
    return frozenset(
        g.var for g in subformulas(f)
        if isinstance(g, Bundle) and g.quant is Quant.EXISTS and g.mod is Mod.BOX)


_EB_KINDS = {(Quant.EXISTS, Mod.BOX), (Quant.FORALL, Mod.DIAMOND)}
_ED_KINDS = {(Quant.EXISTS, Mod.DIAMOND), (Quant.FORALL, Mod.BOX)}


def classify(f: Formula) -> Fragment:
    """Fragment of the NNF of f, judged on f itself.

    Negating a bundle swaps E [] with A <> and E <> with A []; each pair lies
    inside one fragment, and NNF neither drops nor copies a bundle, so f and
    to_nnf(f) use the same fragments.  A bundle-free formula lies in both
    single-bundle fragments; it is reported as EXISTS_BOX so that the
    constant-domain procedure accepts it.
    """
    kinds = {(g.quant, g.mod) for g in subformulas(f) if isinstance(g, Bundle)}
    if kinds <= _EB_KINDS:
        return Fragment.EXISTS_BOX
    if kinds <= _ED_KINDS:
        return Fragment.EXISTS_DIAMOND
    return Fragment.FULL
