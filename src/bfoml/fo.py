"""First-order sentences over one binary relation, and their modal encoding.

The input language is prenex FO over a single binary predicate R with no
equality, constants or function symbols.  Sentences translate into the
exists-diamond fragment: an atom R(x,y) becomes a fresh-variable diamond
step to a world where unary predicates P and Q mark x and y, one conjunct
mirrors the quantifier prefix with bundles, a second forces all worlds at
the depth where R is read off to agree on P and Q, and a third keeps every
path long enough to reach that depth.

Concrete syntax::

    sentence := (("EX" | "ALL") var ".")+ matrix
    matrix   := "R" "(" var "," var ")" | "!" matrix
              | "(" matrix op matrix ")"          with op in & | ->

FO model JSON: {"domain": [...], "R": [[a, b], ...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .errors import InternalSolverError, ModelFormatError, ParseError
from .formulas import (And, Atom, Bundle, Formula, Implies, Mod, Not,
                       Predicate, Quant, TOP, Var, var_key)
from .parser import _Parser, parse_var_name, tokenize

P_PRED = Predicate("P", 1)
Q_PRED = Predicate("Q", 1)


@dataclass(frozen=True)
class FORel:
    left: Var
    right: Var


@dataclass(frozen=True)
class FONot:
    body: "FOMatrix"


@dataclass(frozen=True)
class FOAnd:
    left: "FOMatrix"
    right: "FOMatrix"


@dataclass(frozen=True)
class FOOr:
    left: "FOMatrix"
    right: "FOMatrix"


@dataclass(frozen=True)
class FOImplies:
    left: "FOMatrix"
    right: "FOMatrix"


FOMatrix = FORel | FONot | FOAnd | FOOr | FOImplies


@dataclass(frozen=True)
class FOSentence:
    """Prenex sentence: quantifier prefix over a quantifier-free matrix."""

    prefix: tuple[tuple[Quant, Var], ...]
    matrix: FOMatrix

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


def fo_vars(m: FOMatrix) -> frozenset[Var]:
    if isinstance(m, FORel):
        return frozenset((m.left, m.right))
    if isinstance(m, FONot):
        return fo_vars(m.body)
    return fo_vars(m.left) | fo_vars(m.right)


def format_fo(s: FOSentence) -> str:
    def fmt(m: FOMatrix) -> str:
        if isinstance(m, FORel):
            return f"R({m.left},{m.right})"
        if isinstance(m, FONot):
            return "!" + fmt(m.body)
        op = {FOAnd: "&", FOOr: "|", FOImplies: "->"}[type(m)]
        return f"({fmt(m.left)} {op} {fmt(m.right)})"

    prefix = "".join(
        f"{'EX' if q is Quant.EXISTS else 'ALL'} {v} . " for q, v in s.prefix)
    return prefix + fmt(s.matrix)


class _FOParser(_Parser):
    """The relational grammar on the formula parser's token cursor."""

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
        matrix = self.matrix()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        bound = {v for _, v in prefix}
        open_vars = fo_vars(matrix) - bound
        if open_vars:
            names = ", ".join(str(v) for v in sorted(open_vars, key=var_key))
            raise ParseError(f"not a sentence: free variables {names}")
        if not prefix:
            raise ParseError("a sentence needs at least one quantifier")
        return FOSentence(tuple(prefix), matrix)

    def matrix(self) -> FOMatrix:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "!":
            self.advance()
            return FONot(self.matrix())
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            left = self.matrix()
            op = self.advance()
            if op.kind != "sym" or op.text not in ("&", "|", "->"):
                raise ParseError(f"expected '&', '|' or '->', found {op.text!r}",
                                 op.line, op.column)
            right = self.matrix()
            self.expect_sym(")")
            ctor = {"&": FOAnd, "|": FOOr, "->": FOImplies}[op.text]
            return ctor(left, right)
        if tok.kind == "uident":
            if tok.text != "R":
                raise ParseError(f"only the binary predicate R is available, found {tok.text}",
                                 tok.line, tok.column)
            self.advance()
            self.expect_sym("(")
            a = self.advance()
            self.expect_sym(",")
            b = self.advance()
            self.expect_sym(")")
            if a.kind != "lident" or b.kind != "lident":
                raise ParseError("R takes two variables", tok.line, tok.column)
            return FORel(parse_var_name(a.text), parse_var_name(b.text))
        raise self.fail("expected a matrix formula")


def parse_fo(text: str) -> FOSentence:
    """Parse one prenex FO(R) sentence."""
    return _FOParser(tokenize(text)).sentence()


def fo_check(model: FOModel, sentence: FOSentence) -> bool:
    """Standard truth by exhaustive quantifier expansion; domains stay tiny."""
    elements = list(model.domain)

    def matrix_value(m: FOMatrix, sigma: dict[Var, str]) -> bool:
        if isinstance(m, FORel):
            return (sigma[m.left], sigma[m.right]) in model.rel
        if isinstance(m, FONot):
            return not matrix_value(m.body, sigma)
        if isinstance(m, FOAnd):
            return matrix_value(m.left, sigma) and matrix_value(m.right, sigma)
        if isinstance(m, FOOr):
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
    base = Var("z")
    if base not in used:
        used.add(base)
        yield base
    for k in count(1):
        candidate = Var("z", k)
        if candidate not in used:
            used.add(candidate)
            yield candidate


def _desugar(m: FOMatrix) -> FOMatrix:
    if isinstance(m, FORel):
        return m
    if isinstance(m, FONot):
        return FONot(_desugar(m.body))
    if isinstance(m, FOAnd):
        return FOAnd(_desugar(m.left), _desugar(m.right))
    if isinstance(m, FOOr):
        return FONot(FOAnd(FONot(_desugar(m.left)), FONot(_desugar(m.right))))
    return FONot(FOAnd(_desugar(m.left), FONot(_desugar(m.right))))


def _translate_matrix(m: FOMatrix, fresh: Iterator[Var]) -> Formula:
    if isinstance(m, FORel):
        return Bundle(Quant.EXISTS, Mod.DIAMOND, next(fresh),
                      And(Atom(P_PRED, (m.left,)), Atom(Q_PRED, (m.right,))))
    if isinstance(m, FONot):
        return Not(_translate_matrix(m.body, fresh))
    if not isinstance(m, FOAnd):
        raise InternalSolverError(
            f"translation expects a desugared matrix, got {type(m).__name__}")
    return And(_translate_matrix(m.left, fresh),
               _translate_matrix(m.right, fresh))


def translate_qf(matrix: FOMatrix) -> Formula:
    """Encode a quantifier-free matrix; or and implies are expanded first.

    Each R atom gets its own fresh diamond variable so the result is clean.
    """
    used = set(fo_vars(matrix))
    return _translate_matrix(_desugar(matrix), _fresh_stream(used))


def translate_sentence(sentence: FOSentence) -> Formula:
    """The full encoding: prefix mirror, depth agreement, and path length.

    For a prefix of length n the agreement conjunct has modal depth n+3 and
    the path conjunct is a chain of n+2 towers.  Every binder is a distinct
    fresh variable, so the output is clean, and it always lies in the
    exists-diamond fragment.
    """
    n = len(sentence.prefix)
    used = set(fo_vars(sentence.matrix)) | {v for _, v in sentence.prefix}
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


def build_witness_model(model: FOModel, sentence: FOSentence):
    """The constant-domain chain-plus-fan model for a satisfying FO model.

    Two lead-in worlds, one chain world per quantifier, then one fan world
    per domain element d, where P holds of d and Q of every R-successor of d.
    Callers are expected to have checked fo_check(model, sentence) first.
    """
    from .kripke import KripkeModel

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
