"""Recursive-descent parser for the ASCII formula syntax.

Grammar::

    formula := "T" | "F" | pred | "!" formula
             | "(" formula op formula ")" | quant var mod formula
    op      := "&" | "|" | "->"
    quant   := "E" | "A"
    mod     := "[]" | "<>"
    pred    := UpperIdent "(" [var ("," var)*] ")"
    var     := lowerIdent ["^" nat]

Whitespace-insensitive.  A predicate name keeps one arity throughout a
formula; violations raise ArityMismatchError.  The ``^nat`` variable suffix
and the empty argument list are conservative extensions so that every AST the
library can build prints to parseable text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ArityMismatchError, ParseError
from .formulas import (And, Atom, BOT, Bundle, Formula, Implies, Mod, Not, Or,
                       Predicate, Quant, TOP, Var)

# "." is not part of the formula grammar; it is lexed for the relational
# front end, which shares this tokenizer.
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lident>[a-z][A-Za-z0-9_]*(\^[0-9]+)?)
      | (?P<uident>[A-Z][A-Za-z0-9_]*)
      | (?P<sym>->|\[\]|<>|[(),!&|.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "lident", "uident", "sym", "eof"
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def is_var_name(text: str) -> bool:
    """True when ``text`` is exactly one variable token, such as ``x`` or ``x^2``."""
    match = _TOKEN_RE.fullmatch(text)
    return match is not None and match.lastgroup == "lident"


def parse_var_name(text: str) -> Var:
    """Parse a bare variable token such as ``x`` or ``x^2``."""
    if "^" in text:
        name, _, idx = text.partition("^")
        return Var(name, int(idx))
    return Var(text)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_sym(self, text: str) -> Token:
        tok = self.advance()
        if tok.kind != "sym" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{message}, found {tok.text or 'end of input'!r}",
                          tok.line, tok.column)

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "!":
            self.advance()
            return Not(self.formula())
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            left = self.formula()
            op = self.advance()
            if op.kind != "sym" or op.text not in ("&", "|", "->"):
                raise ParseError(f"expected '&', '|' or '->', found {op.text!r}",
                                 op.line, op.column)
            right = self.formula()
            self.expect_sym(")")
            ctor = {"&": And, "|": Or, "->": Implies}[op.text]
            return ctor(left, right)
        if tok.kind == "uident":
            if tok.text in ("E", "A") and self.peek(1).kind == "lident":
                return self.bundle()
            nxt = self.peek(1)
            if nxt.kind == "sym" and nxt.text == "(":
                return self.atom()
            if tok.text == "T":
                self.advance()
                return TOP
            if tok.text == "F":
                self.advance()
                return BOT
            raise ParseError(f"expected '(' after predicate {tok.text}",
                             nxt.line, nxt.column)
        raise self.fail("expected a formula")

    def bundle(self) -> Bundle:
        quant = Quant(self.advance().text)
        var = parse_var_name(self.advance().text)
        tok = self.advance()
        if tok.kind != "sym" or tok.text not in ("[]", "<>"):
            raise ParseError(f"expected '[]' or '<>', found {tok.text!r}",
                             tok.line, tok.column)
        return Bundle(quant, Mod(tok.text), var, self.formula())

    def atom(self) -> Atom:
        name_tok = self.advance()
        self.expect_sym("(")
        args: list[Var] = []
        if not (self.peek().kind == "sym" and self.peek().text == ")"):
            while True:
                v = self.advance()
                if v.kind != "lident":
                    raise ParseError(f"expected a variable, found {v.text!r}",
                                     v.line, v.column)
                args.append(parse_var_name(v.text))
                if self.peek().kind == "sym" and self.peek().text == ",":
                    self.advance()
                    continue
                break
        self.expect_sym(")")
        arity = len(args)
        seen = self.arities.setdefault(name_tok.text, arity)
        if seen != arity:
            raise ArityMismatchError(name_tok.text, arity, seen,
                                     name_tok.line, name_tok.column)
        return Atom(Predicate(name_tok.text, arity), tuple(args))


def parse(text: str) -> Formula:
    """Parse one formula; trailing input is an error."""
    parser = _Parser(tokenize(text))
    try:
        f = parser.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return f
