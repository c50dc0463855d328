"""Abstract syntax and syntactic transformations for bundled first-order modal logic.

Every quantifier in the language is fused with a modality, so the only binders
are the four bundles ``E x []``, ``E x <>``, ``A x []`` and ``A x <>``.  The
universal bundles are duals: ``A x <> p`` abbreviates ``!E x [] !p`` and
``A x [] p`` abbreviates ``!E x <> !p``; the model checker nevertheless
evaluates them directly and the equivalence is property-tested.

All values here are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from itertools import repeat
from typing import Iterator

from .errors import ArgumentError, CaptureError, ResourceLimitError


@dataclass(frozen=True)
class Var:
    """A variable: a name as the parser reads it plus an optional index >= 0.

    Anything else raises ArgumentError, so printing and reparsing a variable
    is lossless and no two variables print alike.  Generated variables carry
    an index and render as ``x^3``.  The hash is computed once per instance,
    and a pickle carries the fields alone, so a loaded variable rehashes in
    its own process.
    """

    name: str
    index: int | None = None

    def __post_init__(self) -> None:
        # str methods, not a regex: every parsed variable token builds a Var.
        name, index = self.name, self.index
        if not (type(name) is str and name.isidentifier() and name.isascii()
                and name[0].islower()):
            raise ArgumentError(f"variable name must match [a-z][A-Za-z0-9_]*, got {name!r}")
        if index is not None and not (type(index) is int and index >= 0):
            raise ArgumentError(f"variable index must be None or an int >= 0, got {index!r}")
        # Kept outside the fields, as the formula nodes keep theirs; it equals
        # the dataclass hash of (name, index).
        self.__dict__["_hash"] = hash((self.name, self.index))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Var, (self.name, self.index)

    def __str__(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}^{self.index}"


def var_key(v: Var) -> tuple[str, int]:
    """Total order on variables; index-free sorts before any indexed form."""
    return (v.name, -1 if v.index is None else v.index)


@dataclass(frozen=True)
class Predicate:
    """A name as the parser reads it and an arity >= 0, so every atom parses back."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        # str methods, not a regex: every parsed atom builds a Predicate.
        name, arity = self.name, self.arity
        if not (type(name) is str and name.isidentifier() and name.isascii()
                and name[0].isupper()):
            raise ArgumentError(f"predicate name must match [A-Z][A-Za-z0-9_]*, got {name!r}")
        if not (type(arity) is int and arity >= 0):
            raise ArgumentError(f"predicate arity must be an int >= 0, got {arity!r}")


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


# The bundles of each fragment, in the order the formula generator draws them.
FRAGMENT_BUNDLES: dict[Fragment, tuple[tuple[Quant, Mod], ...]] = {
    Fragment.EXISTS_BOX: ((Quant.EXISTS, Mod.BOX), (Quant.FORALL, Mod.DIAMOND)),
    Fragment.EXISTS_DIAMOND: ((Quant.EXISTS, Mod.DIAMOND), (Quant.FORALL, Mod.BOX)),
    Fragment.FULL: ((Quant.EXISTS, Mod.BOX), (Quant.EXISTS, Mod.DIAMOND),
                    (Quant.FORALL, Mod.BOX), (Quant.FORALL, Mod.DIAMOND)),
}


class Formula:
    """Base class of all formula nodes.

    Nodes are immutable and built bottom-up, so each constructor derives the
    node's attributes (printed key, free and bound variables, modal depth,
    connective count) from its children's, and a node is complete once it is
    built.  They are kept in the node's ``__dict__`` under underscore names
    and are not dataclass fields, so ``repr``, ``fields`` and ``asdict``
    never see them, and a pickle carries the fields alone.  A node hashes
    and compares by its key, which its fields determine and which, for the
    variable names the parser reads, determines them, so ``==`` does not
    recurse into the tree.  The cost is that a tree of nesting depth d holds
    O(d**2) key characters.
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

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__dataclass_fields__)

    # Reached from And, Or and Implies, not dataclasses themselves, for non-fields.
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls):
    """A frozen dataclass formula node that hashes and compares by its key."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    cls.__eq__ = Formula.__eq__
    return cls


@_node
class Atom(Formula):
    pred: Predicate
    args: tuple[Var, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise ArgumentError(
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
    and so not a field, and inherits the rest.
    """

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        l, r = self.left, self.right
        self._derive(f"({l._key} {self.op} {r._key})",
                     l._free_vars | r._free_vars, l._bound_vars | r._bound_vars,
                     max(l._modal_depth, r._modal_depth), 1 + l._connectives + r._connectives)


class And(Binary):
    op = "&"


class Or(Binary):
    op = "|"


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


def _require_formula(f: Formula) -> None:
    """Raise the walks' TypeError for a non-formula before reading its attributes."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")


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
    _require_formula(f)
    return f if replacement == target else _substitute(f, replacement, target)


def _substitute(g: Formula, replacement: Var, target: Var) -> Formula:
    if target not in free_vars(g):
        return g
    if isinstance(g, Atom):
        return Atom(g.pred, tuple(replacement if a == target else a for a in g.args))
    # target is free in a bundle g, so g does not bind it and it is free in the body.
    if isinstance(g, Bundle) and g.var == replacement:
        raise CaptureError(
            f"substituting {replacement} for {target} would capture it under "
            f"the binder in {format_formula(g)}")
    return _rebuild(g, tuple(map(_substitute, _children(g), repeat(replacement), repeat(target))))


_TOO_DEEP = "formula nested too deeply to normalize"
_DUAL_QUANT = {Quant.EXISTS: Quant.FORALL, Quant.FORALL: Quant.EXISTS}
_DUAL_MOD = {Mod.BOX: Mod.DIAMOND, Mod.DIAMOND: Mod.BOX}
_DUAL_BINARY = {And: Or, Or: And}


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, implication eliminated.

    Equivalences used: De Morgan, double negation, !T = F, !F = T, and the
    bundle dualities (negating a bundle flips both the quantifier and the
    modality).  Every subtree already in NNF is returned as it is, shared
    with f.  Idempotent; semantic equivalence is checked against the model
    checker in the test suite.  Too deep a nesting raises ResourceLimitError.
    """
    try:
        return _nnf(f, False)
    except RecursionError:
        raise ResourceLimitError(_TOO_DEEP) from None


def _nnf(f: Formula, negated: bool) -> Formula:
    """NNF of f, or of !f when negated: one pass that carries the polarity."""
    while isinstance(f, Not):
        if isinstance(f.body, Atom) and not negated:
            return f
        f, negated = f.body, not negated
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


def fresh_like(base: Var, used: set[Var] | frozenset[Var]) -> Var:
    """base itself if unused, otherwise the smallest-index unused variant of its name."""
    if base not in used:
        return base
    k = 1
    while Var(base.name, k) in used:
        k += 1
    return Var(base.name, k)


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

    A predicate name met at two arities raises ArgumentError, as the parser
    refuses it; every solver cleanses its input first.  Too deep a nesting
    raises ResourceLimitError.
    """
    _require_formula(f)
    free = free_vars(f)
    used = set(all_vars(f))
    taken: set[Var] = set()
    arities: dict[str, int] = {}

    def rec(g: Formula, env: dict[Var, Var]) -> Formula:
        if isinstance(g, Not):
            # A chain of negations is walked in a loop, as in _nnf.
            chain = []
            while isinstance(g, Not):
                chain.append(g)
                g = g.body
            out = rec(g, env)
            for node in reversed(chain):
                out = node if out is node.body else Not(out)
            return out
        if isinstance(g, Atom):
            seen = arities.setdefault(g.pred.name, g.pred.arity)
            if seen != g.pred.arity:
                raise ArgumentError(f"predicate {g.pred.name} used with arity "
                                    f"{g.pred.arity}, previously arity {seen}")
            # By identity: bound arguments take their binder's Var, so lookups skip Var.__eq__.
            args = tuple(env.get(a, a) for a in g.args)
            return g if all(a is b for a, b in zip(args, g.args)) else Atom(g.pred, args)
        if isinstance(g, Bundle):
            v = g.var
            if v in free or v in taken:
                nv = fresh_like(v, used)
                used.add(nv)
            else:
                nv = v
            taken.add(nv)
            body = rec(g.body, {**env, v: nv})
            return g if nv is v and body is g.body else Bundle(g.quant, g.mod, nv, body)
        return _rebuild(g, tuple(map(rec, _children(g), repeat(env))))

    try:
        return rec(f, {})
    except RecursionError:
        raise ResourceLimitError(_TOO_DEEP) from None
    finally:
        del rec  # rec refers to itself through its closure: leave no cycle behind


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


# classify tests subsets against sets built once.
_SINGLE_PAIR_FRAGMENTS = [(fragment, frozenset(FRAGMENT_BUNDLES[fragment]))
                          for fragment in (Fragment.EXISTS_BOX, Fragment.EXISTS_DIAMOND)]


def classify(f: Formula) -> Fragment:
    """Fragment of the NNF of f, judged on f itself.

    Negating a bundle swaps E [] with A <> and E <> with A []; each pair lies
    inside one fragment, and NNF neither drops nor copies a bundle, so f and
    to_nnf(f) use the same fragments.  A bundle-free formula lies in both
    single-bundle fragments; it is reported as EXISTS_BOX so that the
    constant-domain procedure accepts it.
    """
    kinds = {(g.quant, g.mod) for g in subformulas(f) if isinstance(g, Bundle)}
    for fragment, bundles in _SINGLE_PAIR_FRAGMENTS:
        if kinds <= bundles:
            return fragment
    return Fragment.FULL
