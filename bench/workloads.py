"""Seeded inputs, timed operations and correctness checks of the workloads.

A workload is an endless, seed-determined stream of cycles; a cycle is a
short fixed mix of operation kinds, so every cycle carries the same mix and
a run that stops at a cycle boundary measures that mix exactly.  One
operation ("op") is one call into the library on one generated input.
``run`` is the timed part; ``verify`` checks its output afterwards, outside
the timer, and ``outcome`` reduces it to the machine-independent values that
the outcome digest hashes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from bfoml import (And, Bundle, Formula, Fragment, Mod, Not, Or, Quant, Var,
                   atom, check, classify, cleanse, decide_constant_eb,
                   decide_increasing, enumerate_sat, fo_enumerate_sat,
                   format_formula, free_vars, identity_assignment,
                   model_loads, parse, parse_fo, translate_sentence, validate)
from bfoml.fuzz import FormulaGenerator
from golden import GOLDEN

class WrongResult(Exception):
    """An op returned a verdict, model or serialization that is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    data: object  # formula text, FO sentence text, or a parsed Formula
    expect: str | None  # "SAT", "UNSAT", "NONE" (no bounded model), or unknown
    bounds: tuple = ()  # (max_worlds, max_domain, semantics) for oracle ops


# ---------------------------------------------------------------- generation

def _name(rng: random.Random, first: str, taken: set[str]) -> str:
    """A fresh identifier: `first` letters lead, two lowercase letters follow."""
    while True:
        name = rng.choice(first) + "".join(rng.choices(string.ascii_lowercase, k=2))
        if name not in taken:
            taken.add(name)
            return name


def _conj(rng: random.Random, parts: list[Formula]) -> Formula:
    rng.shuffle(parts)
    out = parts[0]
    for part in parts[1:]:
        out = And(out, part)
    return out


def chain_ad(rng: random.Random, n: int) -> Formula:
    """A x1 <> (E y1 [] Q(x1,y1) & A x2 <> (... & P(x1))), names drawn from rng."""
    taken: set[str] = set()
    p, q = _name(rng, "PQRS", taken), _name(rng, "PQRS", taken)
    xs = [_name(rng, "uvwx", taken) for _ in range(n)]
    ys = [_name(rng, "klmn", taken) for _ in range(n)]
    inner = atom(p, xs[0])
    for x, y in reversed(list(zip(xs, ys))):
        box = Bundle(Quant.EXISTS, Mod.BOX, Var(y), atom(q, x, y))
        inner = Bundle(Quant.FORALL, Mod.DIAMOND, Var(x), _conj(rng, [box, inner]))
    return inner


def or_backtrack(rng: random.Random, n: int) -> Formula:
    """n independent (Pi(x) | Qi(x)) conjuncts next to E y <> (R(y) & !R(y))."""
    taken: set[str] = set()
    x, y = _name(rng, "uvwx", taken), _name(rng, "klmn", taken)
    parts: list[Formula] = []
    for _ in range(n):
        disjuncts = [atom(_name(rng, "PQRS", taken), x) for _ in range(2)]
        rng.shuffle(disjuncts)
        parts.append(Or(*disjuncts))
    r = atom(_name(rng, "PQRS", taken), y)
    parts.append(Bundle(Quant.EXISTS, Mod.DIAMOND, Var(y), _conj(rng, [r, Not(r)])))
    return _conj(rng, parts)


def fo_sentence(rng: random.Random, quantifiers: int, lead: str) -> str:
    """A prenex FO(R) sentence led by `lead` over a matrix of 1-2 R atoms."""
    names = rng.sample("abcdefghkmnpqrst", quantifiers)

    def matrix(atoms: int) -> str:
        if atoms == 1:
            text = f"R({rng.choice(names)},{rng.choice(names)})"
            return "!" + text if rng.random() < 0.3 else text
        op = rng.choice(("&", "|", "->"))
        return f"({matrix(1)} {op} {matrix(atoms - 1)})"

    prefix = " ".join(f"{lead if i == 0 else rng.choice(('EX', 'ALL'))} {v} ."
                      for i, v in enumerate(names))
    return f"{prefix} {matrix(rng.randint(1, 2))}"


class Stream:
    """The op stream of one workload and seed, generated cycle by cycle."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.workload = workload
        self.quick = quick
        self.rng = random.Random(f"{workload}/{seed}")
        self.cycles = 0
        if workload == "corpus":
            self.full = FormulaGenerator(self.rng.randrange(2**32), "full")
            self.eb = FormulaGenerator(self.rng.randrange(2**32), "eb")
        elif workload == "oracle":
            self.full = FormulaGenerator(self.rng.randrange(2**32), "full",
                                         variables=("x", "y", "v"))
            self.eb = FormulaGenerator(self.rng.randrange(2**32), "eb",
                                       variables=("u", "v"))
            self.lit_clash = parse("(P(v) & !P(v))")
            self.modal_clash = parse("(E w <> P(w) & A w [] !P(w))")

    def cycle(self) -> list[Op]:
        """The next cycle of ops; the mix per cycle is fixed per workload."""
        self.cycles += 1
        return getattr(self, "_" + self.workload.replace("-", "_"))()

    def _tableau_deep(self) -> list[Op]:
        rng, q = self.rng, self.quick
        # Text round trip: the inputs are generated as text and parsed here.
        # Two or-backtrack and two chain-ad constant ops per cycle put the
        # median inside the first kind and the p80 tail inside the second.
        ops = [Op("chain-ad-increasing", chain_ad(rng, 4 if q else 6), "SAT")]
        for _ in range(2):
            ops += [Op("or-backtrack", or_backtrack(rng, 6 if q else 10), "UNSAT"),
                    Op("chain-ad-constant", chain_ad(rng, 2 if q else 3), "SAT")]
        return [Op(o.kind, parse(format_formula(o.data)), o.expect) for o in ops]

    def _corpus(self) -> list[Op]:
        _, text, verdict = GOLDEN[(self.cycles - 1) % len(GOLDEN)]
        ops = [Op("golden", text, verdict)]
        for _ in range(49):
            ops.append(Op("full", format_formula(self.full.formula()), None))
            ops.append(Op("eb", format_formula(self.eb.formula()), None))
        # The prefix length and leading quantifier, which set most of an FO
        # op's cost, rotate with the cycle instead of being drawn.
        quantifiers, lead = divmod((self.cycles - 1) % 6, 2)
        while True:
            sentence = fo_sentence(self.rng, quantifiers + 1, ("EX", "ALL")[lead])
            # A sentence with a model of at most two elements is satisfiable,
            # so its encoding must be SAT.
            if fo_enumerate_sat(parse_fo(sentence), 2) is not None:
                break
        ops.append(Op("fo", sentence, "SAT"))
        return ops

    def _oracle(self) -> list[Op]:
        inc = (2, 2, "increasing") if self.quick else (3, 3, "increasing")
        const = (3, 2, "constant") if self.quick else (4, 2, "constant")
        # Most ops are lit-clash, so the median falls well inside that kind.
        ops = [Op("sat", self._with_free(self.full, None, 2), None, inc) for _ in range(4)]
        ops += [Op("lit-clash", self._with_free(self.full, self.lit_clash, 2), "NONE", inc)
                for _ in range(12)]
        ops += [Op("modal-clash", self._with_free(self.full, self.modal_clash, 2), "NONE", inc)
                for _ in range(6)]
        ops.append(Op("const-clash", self._with_free(self.eb, self.lit_clash, 2), "NONE", const))
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _with_free(gen: FormulaGenerator, clash: Formula | None, k: int) -> Formula:
        """clash & (a small corpus formula), drawn until it has k free variables.

        The oracle sweeps domain sizes from the number of free variables up,
        so fixing that number fixes the frames an op enumerates, and keeps
        the sweep of an unsatisfiable op within the search budget.  The
        clash comes first so the propositional search closes at once.
        """
        while True:
            f = cleanse(gen.raw(1, 3))
            if clash is not None:
                f = And(clash, f)
            if len(free_vars(f)) == k:
                return f


# ------------------------------------------------------------- timed op

def run(op: Op):
    """The timed part of one op; returns what verify and outcome read.

    A tableau op returns (formula, increasing result or None, constant
    result or None, dumped model text or None).
    """
    if op.bounds:
        return enumerate_sat(op.data, *op.bounds)
    if op.kind == "chain-ad-constant":
        return (op.data, None, decide_constant_eb(op.data), None)
    if isinstance(op.data, Formula):
        return (op.data, decide_increasing(op.data), None, None)
    formula = translate_sentence(parse_fo(op.data)) if op.kind == "fo" else parse(op.data)
    increasing = decide_increasing(formula)
    constant = (decide_constant_eb(formula)
                if classify(formula) is Fragment.EXISTS_BOX else None)
    dumped = increasing.model.dumps() if increasing.is_sat else None
    return (formula, increasing, constant, dumped)


# ------------------------------------------------------------- checks

def _verify_model(model, root, assignment, formula, constant: bool) -> None:
    violation = validate(model)
    if violation is not None:
        raise WrongResult(f"invalid model: {violation}")
    if constant and not model.is_constant_domain:
        raise WrongResult("constant-domain procedure returned a varying-domain model")
    if not check(model, root, assignment, formula):
        raise WrongResult("returned model does not satisfy the input at its root")


def verify(op: Op, result) -> None:
    """Raise WrongResult unless the op's output is correct."""
    if op.bounds:
        if result is None:
            return  # expected of clash ops; a sat op may have no bounded model
        if op.expect == "NONE":
            raise WrongResult(f"{op.kind}: oracle found a model of an unsatisfiable input")
        _verify_model(result.model, result.root, identity_assignment(free_vars(op.data)),
                      op.data, op.bounds[2] == "constant")
        return
    formula, increasing, constant, dumped = result
    if increasing and constant and increasing.verdict is not constant.verdict:
        raise WrongResult(f"{op.kind}: increasing {increasing.verdict.value} "
                          f"but constant {constant.verdict.value}")
    for decision, is_constant in ((increasing, False), (constant, True)):
        if decision is None:
            continue
        if op.expect is not None and decision.verdict.value != op.expect:
            raise WrongResult(f"{op.kind}: verdict {decision.verdict.value}, "
                              f"expected {op.expect}")
        if decision.is_sat:
            _verify_model(decision.model, decision.root, decision.assignment, formula,
                          is_constant)
    if dumped is not None and model_loads(dumped) != increasing.model:
        raise WrongResult(f"{op.kind}: dumped model does not load back equal")


def outcome(op: Op, result) -> tuple:
    """Machine-independent summary of an op's result, for the digest.

    (kind, "none") or (kind, "model", worlds, edges) for oracle ops;
    (kind, decisions) for tableau ops, one (procedure, verdict, nodes,
    depth, model worlds) per decision.
    """
    if op.bounds:
        if result is None:
            return (op.kind, "none")
        return (op.kind, "model", len(result.model.worlds), len(result.model.edges))
    decisions = tuple(
        (proc, d.verdict.value, d.nodes_expanded, d.max_recursion_depth,
         len(d.model.worlds) if d.is_sat else 0)
        for proc, d in (("tableau_increasing", result[1]), ("tableau_constant", result[2]))
        if d is not None)
    return (op.kind, decisions)
