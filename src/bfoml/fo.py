"""First-order sentences over one binary relation, and their modal encoding.

The input language is prenex FO over a single binary predicate R with no
equality, constants or function symbols.  Sentences translate into the
exists-diamond fragment: an atom R(x,y) becomes a fresh-variable diamond
step to a world where unary predicates P and Q mark x and y, one conjunct
mirrors the quantifier prefix with bundles, a second forces all worlds at
the depth where R is read off to agree on P and Q, and a third keeps every
path long enough to reach that depth.

The matrix is an ordinary formula over the one predicate R/2, built with
``!``, ``&``, ``|`` and ``->`` and read by the formula parser.  Concrete
syntax::

    sentence := (("EX" | "ALL") var ".")+ matrix
    matrix   := "R" "(" var "," var ")" | "!" matrix
              | "(" matrix op matrix ")"          with op in & | ->

FO model JSON: {"domain": [...], "R": [[a, b], ...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .errors import FragmentError, InternalSolverError, ModelFormatError, ParseError
from .formulas import (And, Atom, Bundle, Formula, Implies, Mod, Not, Or,
                       Predicate, Quant, TOP, Var, _children, _rebuild,
                       format_formula, free_vars, fresh_like, subformulas,
                       var_key)
from .kripke import KripkeModel
from .parser import _Parser, parse_var_name, tokenize

R_PRED = Predicate("R", 2)
P_PRED = Predicate("P", 1)
Q_PRED = Predicate("Q", 1)


@dataclass(frozen=True)
class FOSentence:
    """Prenex sentence: quantifier prefix over a quantifier-free matrix."""

    prefix: tuple[tuple[Quant, Var], ...]
    matrix: Formula

    def __post_init__(self) -> None:
        for g in subformulas(self.matrix):
            if not (isinstance(g, (Not, And, Or, Implies))
                    or (isinstance(g, Atom) and g.pred == R_PRED)):
                raise FragmentError(
                    f"an FO(R) matrix holds only R/2 atoms and !, &, |, ->; found {g}")

    def __str__(self) -> str:
        return format_fo(self)


@dataclass(frozen=True)
class FOModel:
    domain: tuple[str, ...]
    rel: frozenset[tuple[str, str]]

    def to_json_dict(self) -> dict:
        return {"domain": list(self.domain), "R": [list(p) for p in sorted(self.rel)]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def fo_model_from_json_dict(doc: object) -> FOModel:
    if not isinstance(doc, dict) or "domain" not in doc or "R" not in doc:
        raise ModelFormatError('an FO model needs keys "domain" and "R"')
    domain = doc["domain"]
    rel = doc["R"]
    if not (isinstance(domain, list) and all(isinstance(d, str) for d in domain)):
        raise ModelFormatError("domain must be a list of strings")
    if not isinstance(rel, list) or any(
            not (isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p))
            for p in rel):
        raise ModelFormatError("R must be a list of [element, element] pairs")
    dom = set(domain)
    for a, b in rel:
        if a not in dom or b not in dom:
            raise ModelFormatError(f"R pair [{a!r}, {b!r}] uses unknown elements")
    return FOModel(tuple(sorted(dom)), frozenset((a, b) for a, b in rel))


def fo_model_loads(text: str) -> FOModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return fo_model_from_json_dict(doc)


def format_fo(s: FOSentence) -> str:
    prefix = "".join(
        f"{'EX' if q is Quant.EXISTS else 'ALL'} {v} . " for q, v in s.prefix)
    return prefix + format_formula(s.matrix)


class _FOParser(_Parser):
    """The formula grammar with R/2 as its only predicate, after a prefix."""

    def sentence(self) -> FOSentence:
        prefix: list[tuple[Quant, Var]] = []
        while self.peek().kind == "uident" and self.peek().text in ("EX", "ALL"):
            q = Quant.EXISTS if self.advance().text == "EX" else Quant.FORALL
            vtok = self.advance()
            if vtok.kind != "lident":
                raise ParseError(f"expected a variable, found {vtok.text!r}",
                                 vtok.line, vtok.column)
            v = parse_var_name(vtok.text)
            if any(v == seen for _, seen in prefix):
                raise ParseError(f"variable {v} quantified twice", vtok.line, vtok.column)
            prefix.append((q, v))
            self.expect_sym(".")
        matrix = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        bound = {v for _, v in prefix}
        open_vars = free_vars(matrix) - bound
        if open_vars:
            names = ", ".join(str(v) for v in sorted(open_vars, key=var_key))
            raise ParseError(f"not a sentence: free variables {names}")
        if not prefix:
            raise ParseError("a sentence needs at least one quantifier")
        return FOSentence(tuple(prefix), matrix)

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "uident" and tok.text != "R":
            raise ParseError(f"only the binary predicate R is available, found {tok.text}",
                             tok.line, tok.column)
        return super().formula()

    def atom(self) -> Atom:
        tok = self.peek()
        found = super().atom()
        if found.pred.arity != 2:
            raise ParseError("R takes two variables", tok.line, tok.column)
        return found


def parse_fo(text: str) -> FOSentence:
    """Parse one prenex FO(R) sentence."""
    try:
        return _FOParser(tokenize(text)).sentence()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None


def fo_check(model: FOModel, sentence: FOSentence) -> bool:
    """Standard truth by exhaustive quantifier expansion; domains stay tiny."""
    elements = list(model.domain)

    def matrix_value(m: Formula, sigma: dict[Var, str]) -> bool:
        if isinstance(m, Atom):
            x, y = m.args
            return (sigma[x], sigma[y]) in model.rel
        if isinstance(m, Not):
            return not matrix_value(m.body, sigma)
        if isinstance(m, And):
            return matrix_value(m.left, sigma) and matrix_value(m.right, sigma)
        if isinstance(m, Or):
            return matrix_value(m.left, sigma) or matrix_value(m.right, sigma)
        return (not matrix_value(m.left, sigma)) or matrix_value(m.right, sigma)

    def rec(i: int, sigma: dict[Var, str]) -> bool:
        if i == len(sentence.prefix):
            return matrix_value(sentence.matrix, sigma)
        q, v = sentence.prefix[i]
        results = (rec(i + 1, {**sigma, v: d}) for d in elements)
        return any(results) if q is Quant.EXISTS else all(results)

    return rec(0, {})


def fo_satisfying_models(sentence: FOSentence, max_domain: int) -> Iterator[FOModel]:
    """All satisfying models over canonical domains d0, d1, ... in order."""
    for n in range(1, max_domain + 1):
        domain = tuple(f"d{i}" for i in range(n))
        pairs = [(a, b) for a in domain for b in domain]
        for mask in range(1 << len(pairs)):
            rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            model = FOModel(domain, rel)
            if fo_check(model, sentence):
                yield model


def fo_enumerate_sat(sentence: FOSentence, max_domain: int) -> FOModel | None:
    """First satisfying model with at most max_domain elements, if any."""
    return next(fo_satisfying_models(sentence, max_domain), None)


def _fresh_stream(used: set[Var]) -> Iterator[Var]:
    while True:
        fresh = fresh_like(Var("z"), used)
        used.add(fresh)
        yield fresh


def _desugar(m: Formula) -> Formula:
    if isinstance(m, Or):
        return Not(And(Not(_desugar(m.left)), Not(_desugar(m.right))))
    if isinstance(m, Implies):
        return Not(And(_desugar(m.left), Not(_desugar(m.right))))
    return _rebuild(m, tuple(map(_desugar, _children(m))))


def _translate_matrix(m: Formula, fresh: Iterator[Var]) -> Formula:
    if isinstance(m, Atom):
        x, y = m.args
        return Bundle(Quant.EXISTS, Mod.DIAMOND, next(fresh),
                      And(Atom(P_PRED, (x,)), Atom(Q_PRED, (y,))))
    if isinstance(m, Not):
        return Not(_translate_matrix(m.body, fresh))
    if not isinstance(m, And):
        raise InternalSolverError(
            f"translation expects a desugared matrix, got {type(m).__name__}")
    return And(_translate_matrix(m.left, fresh),
               _translate_matrix(m.right, fresh))


def translate_qf(matrix: Formula) -> Formula:
    """Encode a quantifier-free matrix; or and implies are expanded first.

    Each R atom gets its own fresh diamond variable so the result is clean.
    """
    used = set(free_vars(matrix))
    return _translate_matrix(_desugar(matrix), _fresh_stream(used))


def translate_sentence(sentence: FOSentence) -> Formula:
    """The full encoding: prefix mirror, depth agreement, and path length.

    For a prefix of length n the agreement conjunct has modal depth n+3 and
    the path conjunct is a chain of n+2 towers.  Every binder is a distinct
    fresh variable, so the output is clean, and it always lies in the
    exists-diamond fragment.
    """
    n = len(sentence.prefix)
    used = set(free_vars(sentence.matrix)) | {v for _, v in sentence.prefix}
    fresh = _fresh_stream(used)

    psi1 = _translate_matrix(_desugar(sentence.matrix), fresh)
    for q, v in reversed(sentence.prefix):
        mod = Mod.DIAMOND if q is Quant.EXISTS else Mod.BOX
        psi1 = Bundle(q, mod, v, psi1)

    marker1 = next(fresh)
    marker2 = next(fresh)

    def readoff() -> Formula:
        return Bundle(Quant.EXISTS, Mod.DIAMOND, next(fresh),
                      And(Atom(P_PRED, (marker1,)), Atom(Q_PRED, (marker2,))))

    def tower(body: Formula, quant: Quant, mod: Mod, height: int) -> Formula:
        for _ in range(height):
            body = Bundle(quant, mod, next(fresh), body)
        return body

    agreement = Implies(tower(readoff(), Quant.EXISTS, Mod.DIAMOND, n),
                        tower(readoff(), Quant.FORALL, Mod.BOX, n))
    psi2 = Bundle(Quant.FORALL, Mod.BOX, marker1,
                  Bundle(Quant.FORALL, Mod.BOX, marker2, agreement))

    psi3: Formula | None = None
    for j in range(1, n + 3):
        step = tower(Bundle(Quant.EXISTS, Mod.DIAMOND, next(fresh), TOP),
                     Quant.FORALL, Mod.BOX, j)
        psi3 = step if psi3 is None else And(psi3, step)

    return And(And(psi1, psi2), psi3)


def build_witness_model(model: FOModel, sentence: FOSentence) -> KripkeModel:
    """The constant-domain chain-plus-fan model for a satisfying FO model.

    Two lead-in worlds, one chain world per quantifier, then one fan world
    per domain element d, where P holds of d and Q of every R-successor of d.
    Callers are expected to have checked fo_check(model, sentence) first.
    """
    n = len(sentence.prefix)
    chain = ["v1", "v2"] + [f"w{i}" for i in range(1, n + 1)]
    fans = {d: f"u_{d}" for d in model.domain}
    worlds = chain + [fans[d] for d in model.domain]
    edges = list(zip(chain, chain[1:])) + [(chain[-1], fans[d]) for d in model.domain]
    rho = {
        fans[d]: {
            "P": {(d,)},
            "Q": {(c,) for (a, c) in model.rel if a == d},
        }
        for d in model.domain
    }
    return KripkeModel.create(
        worlds=worlds,
        domain=model.domain,
        edges=edges,
        local={w: set(model.domain) for w in worlds},
        rho=rho,
    )
