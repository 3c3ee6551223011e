"""Syntax of the dippl language: AST, parser, pretty-printer, validation.

dippl is a loop-free imperative language over Boolean variables with two
probabilistic statements: ``x ~ flip(theta)`` draws a Bernoulli(theta)
sample into ``x``, and ``observe(e)`` conditions the program's
distribution on ``e`` being true.

Concrete grammar (``//`` starts a line comment)::

    program := stmt
    stmt    := atom (";" atom)* ";"?
    atom    := "skip"
             | ident ":=" expr
             | ident "~" "flip" "(" number ")"
             | "if" expr "{" stmt "}" "else" "{" stmt "}"
             | "observe" "(" expr ")"
    expr    := orExpr ;  orExpr := andExpr ("||" andExpr)* ;
    andExpr := notExpr ("&&" notExpr)* ;  notExpr := "!" notExpr | prim ;
    prim    := "true" | "false" | ident | "(" expr ")"
    number  := decimal | integer "/" integer
    ident   := [A-Za-z_][A-Za-z0-9_]*

``!`` binds tighter than ``&&``, which binds tighter than ``||``; binary
operators are left-associative.  Flip parameters are exact rationals:
``flip(0.6)`` means theta = 3/5, and ``flip(1/4)`` is accepted directly.
Variables are declared implicitly at first mention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union


class ParseError(Exception):
    """Raised on malformed source text; carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownVariable(Exception):
    """A variable was referenced outside the scope that defines it."""

    def __init__(self, name: str):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Not:
    inner: "Expr"


@dataclass(frozen=True)
class And:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Or:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[VarRef, Const, Not, And, Or]


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    target: str
    rhs: Expr


@dataclass(frozen=True)
class Flip:
    """``target ~ flip(theta)``.

    ``label`` is not part of the concrete syntax; the parser numbers flips
    0, 1, 2, ... in textual order so each flip can be referred to uniquely
    (it becomes the flip's propositional variable during compilation).
    """

    target: str
    theta: Fraction
    label: int

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        if not 0 <= self.theta <= 1:
            raise ValueError(f"flip parameter {self.theta} outside [0, 1]")


@dataclass(frozen=True)
class If:
    cond: Expr
    then_branch: "Stmt"
    else_branch: "Stmt"


@dataclass(frozen=True)
class Observe:
    cond: Expr


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


Stmt = Union[Skip, Assign, Flip, If, Observe, Seq]


def expr_vars(e: Expr) -> Iterator[str]:
    """Variable names in ``e``, in textual (left-to-right) order.

    An explicit stack, since operator chains nest as deep as they are long.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, VarRef):
            yield node.name
        elif isinstance(node, Not):
            stack.append(node.inner)
        elif isinstance(node, (And, Or)):
            stack.append(node.rhs)
            stack.append(node.lhs)


def _walk_stmts(s: Stmt) -> Iterator[Stmt]:
    """All statement nodes of ``s`` in textual order.

    An explicit stack, since sequences nest as deep as they are long.
    """
    stack = [s]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        elif isinstance(node, If):
            stack.append(node.else_branch)
            stack.append(node.then_branch)


def flips_of(s: Stmt) -> list[Flip]:
    """All Flip nodes of ``s`` in textual order."""
    return [node for node in _walk_stmts(s) if isinstance(node, Flip)]


def relabel_flips(s: Stmt) -> Stmt:
    """Rebuild ``s`` with flip labels renumbered 0.. in textual order.

    Convenient when assembling ASTs by hand; parsed programs already
    carry correct labels.
    """
    label = 0
    built: list[Stmt] = []
    # (node, children done): a compound node is rebuilt from the last
    # entries of ``built`` once its children are
    stack: list[tuple[Stmt, bool]] = [(s, False)]
    while stack:
        node, done = stack.pop()
        if isinstance(node, Flip):
            built.append(Flip(node.target, node.theta, label))
            label += 1
        elif isinstance(node, Seq):
            if done:
                second = built.pop()
                built.append(Seq(built.pop(), second))
            else:
                stack.extend([(node, True), (node.second, False), (node.first, False)])
        elif isinstance(node, If):
            if done:
                else_branch = built.pop()
                built.append(If(node.cond, built.pop(), else_branch))
            else:
                stack.extend(
                    [(node, True), (node.else_branch, False), (node.then_branch, False)]
                )
        else:
            built.append(node)
    return built[0]


@dataclass(frozen=True)
class Program:
    """A statement plus derived bookkeeping.

    ``vars`` lists every program variable exactly once, in order of first
    textual appearance; ``flip_count`` is the number of flip statements.
    """

    body: Stmt
    vars: tuple[str, ...]
    flip_count: int

    @classmethod
    def from_stmt(cls, body: Stmt) -> "Program":
        seen: dict[str, None] = {}

        def note_expr(e: Expr):
            for name in expr_vars(e):
                seen.setdefault(name)

        labels = set()
        for node in _walk_stmts(body):
            if isinstance(node, Assign):
                seen.setdefault(node.target)
                note_expr(node.rhs)
            elif isinstance(node, Flip):
                seen.setdefault(node.target)
                if node.label in labels:
                    raise ValueError(f"duplicate flip label {node.label}")
                labels.add(node.label)
            elif isinstance(node, If):
                note_expr(node.cond)
            elif isinstance(node, Observe):
                note_expr(node.cond)
        return cls(body=body, vars=tuple(seen), flip_count=len(labels))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({"skip", "if", "else", "observe", "flip", "true", "false"})

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<decimal>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|\|\||&&|[~!;(){}/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "decimal", "int", "ident", keyword, operator, or "eof"
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            col = pos - line_start + 1
            if kind == "ident" and text in KEYWORDS:
                kind = text
            elif kind == "op":
                kind = text
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.flip_label = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # stmt := atom (";" atom)* ";"?   (sequencing nests to the right)
    def parse_stmt(self) -> Stmt:
        atoms = [self.parse_atom()]
        while self.peek().kind == ";":
            self.advance()
            if self.peek().kind in ("eof", "}"):
                break
            atoms.append(self.parse_atom())
        stmt = atoms[-1]
        for atom in reversed(atoms[:-1]):
            stmt = Seq(atom, stmt)
        return stmt

    def parse_atom(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "skip":
            self.advance()
            return Skip()
        if tok.kind == "if":
            self.advance()
            cond = self.parse_expr()
            self.expect("{")
            then_branch = self.parse_stmt()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.parse_stmt()
            self.expect("}")
            return If(cond, then_branch, else_branch)
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
                theta = self.parse_number()
                self.expect(")")
                label = self.flip_label
                self.flip_label += 1
                return Flip(name, theta, label)
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
                        "zero denominator", denom_tok.line, denom_tok.column
                    )
                return Fraction(int(tok.text), int(denom_tok.text))
            return Fraction(int(tok.text))
        raise self.error("expected a number")

    def parse_expr(self) -> Expr:
        expr = self.parse_and()
        while self.peek().kind == "||":
            self.advance()
            expr = Or(expr, self.parse_and())
        return expr

    def parse_and(self) -> Expr:
        expr = self.parse_not()
        while self.peek().kind == "&&":
            self.advance()
            expr = And(expr, self.parse_not())
        return expr

    def parse_not(self) -> Expr:
        if self.peek().kind == "!":
            self.advance()
            return Not(self.parse_not())
        return self.parse_prim()

    def parse_prim(self) -> Expr:
        tok = self.peek()
        if tok.kind == "true":
            self.advance()
            return TRUE
        if tok.kind == "false":
            self.advance()
            return FALSE
        if tok.kind == "ident":
            self.advance()
            return VarRef(tok.text)
        if tok.kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse(source: str) -> Program:
    """Parse dippl source text into a Program.

    Raises ParseError (with line/column) on malformed input and ValueError
    when a flip parameter lies outside [0, 1].
    """
    parser = _Parser(_tokenize(source))
    body = parser.parse_stmt()
    parser.expect("eof")
    return Program.from_stmt(body)


def parse_expr(source: str) -> Expr:
    """Parse a standalone Boolean expression (used for query strings)."""
    parser = _Parser(_tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

_OR_PREC, _AND_PREC, _NOT_PREC = 1, 2, 3


def _expr_text(e: Expr) -> str:
    """Source text of ``e``, built left to right with an explicit stack,
    since operator chains nest as deep as they are long."""
    out: list[str] = []
    # entries are (expression, precedence of its context) or text to emit
    stack: list = [(e, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, parent_prec = item
        if isinstance(node, VarRef):
            out.append(node.name)
        elif isinstance(node, Const):
            out.append("true" if node.value else "false")
        elif isinstance(node, Not):
            out.append("!")
            stack.append((node.inner, _NOT_PREC))
        else:
            prec, op = (_OR_PREC, " || ") if isinstance(node, Or) else (_AND_PREC, " && ")
            # the right operand gets prec+1 so same-precedence right
            # nesting is parenthesized and the printed text reparses to
            # the same tree
            if prec < parent_prec:
                out.append("(")
                stack.append(")")
            stack += ((node.rhs, prec + 1), op, (node.lhs, prec))
    return "".join(out)


def _seq_atoms(s: Stmt) -> list[Stmt]:
    atoms = []
    while isinstance(s, Seq):
        atoms.append(s.first)
        s = s.second
    atoms.append(s)
    return atoms


def _stmt_text(s: Stmt, separator: str) -> str:
    if isinstance(s, Seq):
        return separator.join(_atom_text(a) for a in _seq_atoms(s))
    return _atom_text(s)


def _atom_text(s: Stmt) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{s.target} := {_expr_text(s.rhs)}"
    if isinstance(s, Flip):
        return f"{s.target} ~ flip({s.theta})"
    if isinstance(s, Observe):
        return f"observe({_expr_text(s.cond)})"
    if isinstance(s, If):
        return (
            f"if {_expr_text(s.cond)} {{ {_stmt_text(s.then_branch, '; ')} }}"
            f" else {{ {_stmt_text(s.else_branch, '; ')} }}"
        )
    # a Seq that is not part of an enclosing sequence still flattens
    return _stmt_text(s, "; ")


def unparse(program: Program | Stmt) -> str:
    """Render a program (or bare statement) as parseable source text.

    ``parse(unparse(p))`` is structurally equal to ``p`` for every
    program the parser can produce.  Hand-built ASTs round-trip when
    they are in the parser's normal form: flip labels numbered in
    textual order (see relabel_flips) and sequences nested to the right
    (the grammar has no statement grouping, so a ``Seq`` chain always
    prints flat and reparses right-nested).
    """
    body = program.body if isinstance(program, Program) else program
    return _stmt_text(body, ";\n")


# ---------------------------------------------------------------------------
# Static validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    severity: str
    var: str
    message: str


def validate(program: Program) -> list[Diagnostic]:
    """Warn about variables that may be read before being assigned.

    Such programs are legal (an unassigned variable takes its value from
    the initial state), so every diagnostic has severity "warning".  A
    variable is flagged when some execution path reaches a read of it
    with no prior assign or flip to it.
    """
    flagged: dict[str, None] = {}
    # variables assigned for sure on the path walked so far; only an
    # ``if`` copies it, for its else branch
    assigned: set[str] = set()

    def check_expr(e: Expr):
        for name in expr_vars(e):
            if name not in assigned:
                flagged.setdefault(name)

    # a task is a statement to walk, or, for an ``if`` whose then branch
    # is done, ("else", branch, assigned before the if) and then
    # ("meet", assigned after the then branch)
    stack: list = [program.body]
    while stack:
        task = stack.pop()
        if isinstance(task, tuple):
            if task[0] == "else":
                _, branch, before = task
                stack.append(("meet", assigned))
                stack.append(branch)
                assigned = before
            else:
                # assigned for sure afterwards = assigned on both branches
                assigned &= task[1]
        elif isinstance(task, (Assign, Flip)):
            if isinstance(task, Assign):
                check_expr(task.rhs)
            assigned.add(task.target)
        elif isinstance(task, Observe):
            check_expr(task.cond)
        elif isinstance(task, If):
            check_expr(task.cond)
            stack.append(("else", task.else_branch, set(assigned)))
            stack.append(task.then_branch)
        elif isinstance(task, Seq):
            stack.append(task.second)
            stack.append(task.first)
    return [
        Diagnostic("warning", name, f"variable {name!r} may be read before assignment")
        for name in flagged
    ]
