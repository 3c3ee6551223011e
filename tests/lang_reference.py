"""The token-object lexer and method-per-token parser that ``dippl.lang``
used before its one-scan front end, kept as the reference for the
differential test in ``test_lang.py``.

``parse`` and ``parse_expr`` here return what ``dippl.lang.parse`` and
``dippl.lang.parse_expr`` must return: the same ASTs, and on malformed
input the same exception type, message, line and column.  ``flip_theta``
is ``Flip``'s parameter check from before it skipped the conversion of
a ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from dippl.lang import (
    FALSE,
    TRUE,
    And,
    Assign,
    Expr,
    Flip,
    If,
    Not,
    Observe,
    Or,
    ParseError,
    Program,
    Seq,
    Skip,
    Stmt,
    VarRef,
)

KEYWORDS = frozenset({"skip", "if", "else", "observe", "flip", "true", "false"})

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<decimal>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|\|\||&&|[~!;(){}/])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "decimal", "int", "ident", keyword, operator, or "eof"
    text: str
    offset: int  # index of the token's first character in the source


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(source: str) -> list[_Token]:
    """The tokens of ``source``, ending with an "eof" token."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", *_position(source, m.start()))
        if kind == "op" or (kind == "ident" and text in KEYWORDS):
            kind = text
        tokens.append(_Token(kind, text, m.start()))
    tokens.append(_Token("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, *_position(self.source, self.peek().offset))

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def parse_stmt(self) -> Stmt:
        outer: list[tuple] = []
        atoms: list[Stmt] = []
        while True:
            if self.peek().kind == "if":
                self.advance()
                cond = self.parse_expr()
                self.expect("{")
                outer.append((atoms, cond, None))
                atoms = []
                continue
            atoms.append(self.parse_simple())
            while True:
                if self.peek().kind == ";":
                    self.advance()
                    if self.peek().kind not in ("eof", "}"):
                        break
                stmt = atoms[-1]
                for atom in reversed(atoms[:-1]):
                    stmt = Seq(atom, stmt)
                if not outer:
                    return stmt
                self.expect("}")
                atoms, cond, then_branch = outer.pop()
                if then_branch is None:
                    self.expect("else")
                    self.expect("{")
                    outer.append((atoms, cond, stmt))
                    atoms = []
                    break
                atoms.append(If(cond, then_branch, stmt))

    def parse_simple(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "skip":
            self.advance()
            return Skip()
        if tok.kind == "observe":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return Observe(cond)
        if tok.kind == "ident":
            name = self.advance().text
            nxt = self.peek()
            if nxt.kind == ":=":
                self.advance()
                return Assign(name, self.parse_expr())
            if nxt.kind == "~":
                self.advance()
                self.expect("flip")
                self.expect("(")
                number = self.peek()
                theta = self.parse_number()
                self.expect(")")
                try:
                    return Flip(name, theta)
                except ValueError as exc:
                    raise ParseError(str(exc), *_position(self.source, number.offset)) from None
            raise self.error("expected ':=' or '~' after identifier")
        raise self.error(f"expected a statement, found {tok.text or 'end of input'!r}")

    def parse_number(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "decimal":
            self.advance()
            return Fraction(tok.text)
        if tok.kind == "int":
            self.advance()
            if self.peek().kind == "/":
                self.advance()
                denom_tok = self.expect("int")
                if int(denom_tok.text) == 0:
                    raise ParseError(
                        "zero denominator", *_position(self.source, denom_tok.offset)
                    )
                return Fraction(int(tok.text), int(denom_tok.text))
            return Fraction(int(tok.text))
        raise self.error("expected a number")

    def parse_expr(self) -> Expr:
        outer: list[tuple] = []
        ors = ands = None
        nots = 0
        while True:
            while self.peek().kind == "!":
                self.advance()
                nots += 1
            tok = self.peek()
            if tok.kind == "(":
                self.advance()
                outer.append((ors, ands, nots))
                ors = ands = None
                nots = 0
                continue
            if tok.kind == "true":
                expr = TRUE
            elif tok.kind == "false":
                expr = FALSE
            elif tok.kind == "ident":
                expr = VarRef(tok.text)
            else:
                raise self.error(f"expected an expression, found {tok.text or 'end of input'!r}")
            self.advance()
            while True:
                for _ in range(nots):
                    expr = Not(expr)
                ands = expr if ands is None else And(ands, expr)
                if self.peek().kind == "&&":
                    break
                ors = ands if ors is None else Or(ors, ands)
                if self.peek().kind == "||":
                    ands = None
                    break
                if not outer:
                    return ors
                self.expect(")")
                expr = ors
                ors, ands, nots = outer.pop()
            self.advance()
            nots = 0


def parse(source: str) -> Program:
    parser = _Parser(source)
    body = parser.parse_stmt()
    parser.expect("eof")
    return Program.from_stmt(body)


def parse_expr(source: str) -> Expr:
    parser = _Parser(source)
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


def flip_theta(theta) -> Fraction:
    """The ``theta`` that ``Flip(target, theta)`` keeps, or its error."""
    if isinstance(theta, float):
        raise TypeError("flip parameters must be exact rationals, not floats")
    theta = Fraction(theta)
    if not 0 <= theta <= 1:
        raise ValueError(f"flip parameter {theta} outside [0, 1]")
    return theta
