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
    """Which bundle pair a formula uses, judged after conversion to NNF."""

    EXISTS_BOX = "exists-box"
    EXISTS_DIAMOND = "exists-diamond"
    FULL = "full"


class Formula:
    """Base class of all formula nodes.

    Nodes are immutable, so every derived attribute (printed key, free and
    bound variables, modal depth, connective count, hash) is computed once,
    from the children's values, and kept in the node's ``__dict__`` under an
    underscore name; until then it reads as None from this class.  Kept
    attributes are not dataclass fields, so ``==``, ``repr``, ``fields`` and
    ``asdict`` never see them, and pickling rebuilds a node from its fields
    alone: a ``str`` hash differs between processes.
    """

    __slots__ = ()
    _key = _free_vars = _bound_vars = _modal_depth = _connectives = _hash = None

    def __str__(self) -> str:
        return format_formula(self)

    def _hash_once(self) -> int:
        """The dataclass hash of the fields, which reuses the children's."""
        if self._hash is not None:
            return self._hash
        fields = tuple(getattr(self, n) for n in self.__dataclass_fields__)
        return _keep(self, "_hash", hash(fields))

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__dataclass_fields__)


def _keep(f: Formula, name: str, value):
    """Store a derived attribute on a node; the frozen dataclass refuses setattr."""
    object.__setattr__(f, name, value)
    return value


def _node(cls):
    """A frozen dataclass formula node whose hash is computed once."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula._hash_once
    return cls


@_node
class Atom(Formula):
    pred: Predicate
    args: tuple[Var, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"atom {self.pred.name} given {len(self.args)} arguments, arity is {self.pred.arity}")


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    """Surface sugar; eliminated by to_nnf before any tableau work."""

    left: Formula
    right: Formula


@_node
class Bundle(Formula):
    quant: Quant
    mod: Mod
    var: Var
    body: Formula


TOP = Top()
BOT = Bot()


def atom(name: str, *args: str | Var) -> Atom:
    """Convenience constructor used heavily in tests."""
    vs = tuple(a if isinstance(a, Var) else Var(a) for a in args)
    return Atom(Predicate(name, len(vs)), vs)


def format_formula(f: Formula) -> str:
    """Render in the ASCII concrete syntax.  parse(format_formula(f)) == f."""
    return formula_key(f)


def formula_key(f: Formula) -> str:
    """Canonical sort key; the printed form encodes the AST injectively.

    Rendered once per node, from the children's keys.
    """
    if f._key is not None:
        return f._key
    if isinstance(f, Top):
        key = "T"
    elif isinstance(f, Bot):
        key = "F"
    elif isinstance(f, Atom):
        key = f"{f.pred.name}({','.join(str(a) for a in f.args)})"
    elif isinstance(f, Not):
        key = "!" + formula_key(f.body)
    elif isinstance(f, And):
        key = f"({formula_key(f.left)} & {formula_key(f.right)})"
    elif isinstance(f, Or):
        key = f"({formula_key(f.left)} | {formula_key(f.right)})"
    elif isinstance(f, Implies):
        key = f"({formula_key(f.left)} -> {formula_key(f.right)})"
    elif isinstance(f, Bundle):
        key = f"{f.quant.value} {f.var} {f.mod.value} {formula_key(f.body)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _keep(f, "_key", key)


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula occurrences of f, including f itself, preorder."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Bundle):
        yield from subformulas(f.body)


def free_vars(f: Formula) -> frozenset[Var]:
    """Computed once per node, from the children's sets."""
    if f._free_vars is not None:
        return f._free_vars
    if isinstance(f, Atom):
        fv = frozenset(f.args)
    elif isinstance(f, (Top, Bot)):
        fv = frozenset()
    elif isinstance(f, Not):
        fv = free_vars(f.body)
    elif isinstance(f, (And, Or, Implies)):
        fv = free_vars(f.left) | free_vars(f.right)
    elif isinstance(f, Bundle):
        fv = free_vars(f.body) - {f.var}
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _keep(f, "_free_vars", fv)


def bound_vars(f: Formula) -> frozenset[Var]:
    """Variables bound by some bundle in f; computed once per node."""
    if f._bound_vars is not None:
        return f._bound_vars
    if isinstance(f, (Atom, Top, Bot)):
        bv = frozenset()
    elif isinstance(f, Not):
        bv = bound_vars(f.body)
    elif isinstance(f, (And, Or, Implies)):
        bv = bound_vars(f.left) | bound_vars(f.right)
    elif isinstance(f, Bundle):
        bv = bound_vars(f.body) | {f.var}
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _keep(f, "_bound_vars", bv)


def all_vars(f: Formula) -> frozenset[Var]:
    """Every variable occurring in f, free or bound, including binder positions."""
    out: set[Var] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out.update(g.args)
        elif isinstance(g, Bundle):
            out.add(g.var)
    return frozenset(out)


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
        if isinstance(g, Not):
            return Not(rec(g.body))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(rec(g.left), rec(g.right))
        if isinstance(g, Bundle):
            # target is free in g, so g does not bind it and it is free in the body.
            if g.var == replacement:
                raise CaptureError(
                    f"substituting {replacement} for {target} would capture it under "
                    f"the binder in {format_formula(g)}")
            return Bundle(g.quant, g.mod, g.var, rec(g.body))
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


_DUAL_QUANT = {Quant.EXISTS: Quant.FORALL, Quant.FORALL: Quant.EXISTS}
_DUAL_MOD = {Mod.BOX: Mod.DIAMOND, Mod.DIAMOND: Mod.BOX}


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, implication eliminated.

    Equivalences used: De Morgan, double negation, !T = F, !F = T, and the
    bundle dualities (negating a bundle flips both the quantifier and the
    modality).  Idempotent; semantic equivalence is checked against the model
    checker in the test suite.
    """
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Implies):
        return Or(to_nnf(Not(f.left)), to_nnf(f.right))
    if isinstance(f, Bundle):
        return Bundle(f.quant, f.mod, f.var, to_nnf(f.body))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Atom):
            return f
        if isinstance(g, Top):
            return BOT
        if isinstance(g, Bot):
            return TOP
        if isinstance(g, Not):
            return to_nnf(g.body)
        if isinstance(g, And):
            return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Implies):
            return And(to_nnf(g.left), to_nnf(Not(g.right)))
        if isinstance(g, Bundle):
            return Bundle(_DUAL_QUANT[g.quant], _DUAL_MOD[g.mod], g.var, to_nnf(Not(g.body)))
    raise TypeError(f"not a formula: {f!r}")


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
    cleanse is idempotent.
    """
    free = free_vars(f)
    used = set(all_vars(f))
    taken: set[Var] = set()

    def rec(g: Formula, env: dict[Var, Var]) -> Formula:
        if isinstance(g, Atom):
            if not any(a in env for a in g.args):
                return g
            return Atom(g.pred, tuple(env.get(a, a) for a in g.args))
        if isinstance(g, (Top, Bot)):
            return g
        if isinstance(g, Not):
            return Not(rec(g.body, env))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(rec(g.left, env), rec(g.right, env))
        if isinstance(g, Bundle):
            v = g.var
            if v in free or v in taken:
                nv = fresh_var(v, used)
                used.add(nv)
            else:
                nv = v
            taken.add(nv)
            child_env = dict(env)
            child_env[v] = nv
            return Bundle(g.quant, g.mod, nv, rec(g.body, child_env))
        raise TypeError(f"not a formula: {g!r}")

    return rec(f, {})


def modal_depth(f: Formula) -> int:
    """Maximum bundle-nesting depth; computed once per node."""
    if f._modal_depth is not None:
        return f._modal_depth
    if isinstance(f, (Atom, Top, Bot)):
        depth = 0
    elif isinstance(f, Not):
        depth = modal_depth(f.body)
    elif isinstance(f, (And, Or, Implies)):
        depth = max(modal_depth(f.left), modal_depth(f.right))
    elif isinstance(f, Bundle):
        depth = 1 + modal_depth(f.body)
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _keep(f, "_modal_depth", depth)


def boolean_connective_count(f: Formula) -> int:
    """Number of &, | and -> nodes; literal negation does not count.

    Computed once per node.
    """
    if f._connectives is not None:
        return f._connectives
    if isinstance(f, (Atom, Top, Bot)):
        count = 0
    elif isinstance(f, Not):
        count = boolean_connective_count(f.body)
    elif isinstance(f, (And, Or, Implies)):
        count = 1 + boolean_connective_count(f.left) + boolean_connective_count(f.right)
    elif isinstance(f, Bundle):
        count = boolean_connective_count(f.body)
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _keep(f, "_connectives", count)


def ast_size(f: Formula) -> int:
    """Node count including variable occurrences and binder positions."""
    if isinstance(f, Atom):
        return 1 + len(f.args)
    if isinstance(f, (Top, Bot)):
        return 1
    if isinstance(f, Not):
        return 1 + ast_size(f.body)
    if isinstance(f, (And, Or, Implies)):
        return 1 + ast_size(f.left) + ast_size(f.right)
    if isinstance(f, Bundle):
        return 2 + ast_size(f.body)
    raise TypeError(f"not a formula: {f!r}")


def exists_box_vars(f: Formula) -> frozenset[Var]:
    """Variables bound by an E-box bundle anywhere in f."""
    return frozenset(
        g.var for g in subformulas(f)
        if isinstance(g, Bundle) and g.quant is Quant.EXISTS and g.mod is Mod.BOX)


_EB_KINDS = {(Quant.EXISTS, Mod.BOX), (Quant.FORALL, Mod.DIAMOND)}
_ED_KINDS = {(Quant.EXISTS, Mod.DIAMOND), (Quant.FORALL, Mod.BOX)}


def classify(f: Formula) -> Fragment:
    """Fragment of the NNF of f.

    A bundle-free formula lies in both single-bundle fragments; it is reported
    as EXISTS_BOX so that the constant-domain procedure accepts it.
    """
    kinds = {(g.quant, g.mod) for g in subformulas(to_nnf(f)) if isinstance(g, Bundle)}
    if kinds <= _EB_KINDS:
        return Fragment.EXISTS_BOX
    if kinds <= _ED_KINDS:
        return Fragment.EXISTS_DIAMOND
    return Fragment.FULL
