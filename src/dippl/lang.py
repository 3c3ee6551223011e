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
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import zip_longest
from typing import Iterator, NamedTuple, Union


class ParseError(Exception):
    """Raised on malformed source text; carries 1-based line/column.

    The parser keeps only each token's offset and computes the line and
    column from it when it raises.
    """

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

class _Node:
    """Base of the AST node classes: a pre-order ``walk`` and structural
    ``==``, ``hash`` and ``repr``.

    ``==`` and ``hash`` compare the node types and the other field
    values in ``walk`` order; ``repr`` prints the dataclass form, e.g.
    ``Not(inner=VarRef(name='y'))``.  All of them use an explicit stack,
    since operator chains and sequences nest as deep as they are long.
    """

    _field_names: tuple[str, ...] = ()
    # the fields that hold child nodes, last first, so that a stack pops
    # the children in textual order
    _child_fields: tuple[str, ...] = ()

    def walk(self) -> Iterator["_Node"]:
        """This node and every node below it, statements and expressions
        alike, in textual (pre-order) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for name in node._child_fields:
                stack.append(getattr(node, name))

    def _tokens(self) -> Iterator:
        # each node's type, then its non-node field values; the types fix
        # every node's arity, so equal streams mean equal trees
        for node in self.walk():
            yield type(node)
            for name in node._field_names:
                value = getattr(node, name)
                if not isinstance(value, _Node):
                    yield value

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        end = object()
        return all(
            a == b for a, b in zip_longest(self._tokens(), other._tokens(), fillvalue=end)
        )

    def __hash__(self):
        return hash(tuple(self._tokens()))

    def __repr__(self):
        out: list[str] = []
        # entries are nodes still to print, or text to emit
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(type(item).__qualname__ + "(")
            stack.append(")")
            for i in reversed(range(len(item._field_names))):
                name = item._field_names[i]
                value = getattr(item, name)
                stack.append(value if isinstance(value, _Node) else repr(value))
                stack.append(f"{', ' if i else ''}{name}=")
        return "".join(out)


def _node(cls):
    """An immutable AST node class with ``_Node``'s ``walk``, ``==``,
    ``hash`` and ``repr``; its fields annotated ``Expr`` or ``Stmt`` hold
    its children."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls._field_names = tuple(f.name for f in fields(cls))
    cls._child_fields = tuple(
        f.name for f in reversed(fields(cls)) if f.type in ("Expr", "Stmt")
    )
    return cls


@_node
class VarRef(_Node):
    name: str


@_node
class Const(_Node):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@_node
class Not(_Node):
    inner: Expr


@_node
class And(_Node):
    lhs: Expr
    rhs: Expr


@_node
class Or(_Node):
    lhs: Expr
    rhs: Expr


Expr = Union[VarRef, Const, Not, And, Or]


@_node
class Skip(_Node):
    pass


@_node
class Assign(_Node):
    target: str
    rhs: Expr


@_node
class Flip(_Node):
    """``target ~ flip(theta)``.

    Each occurrence of a flip in a program is an independent draw: the
    compiler gives it a fresh propositional variable, numbering flips in
    textual order, so one node may occur more than once.  ``theta`` is
    an exact rational; floats are rejected, as by ``WeightFn``.
    """

    target: str
    theta: Fraction

    def __post_init__(self):
        if isinstance(self.theta, float):
            raise TypeError("flip parameters must be exact rationals, not floats")
        object.__setattr__(self, "theta", Fraction(self.theta))
        if not 0 <= self.theta <= 1:
            raise ValueError(f"flip parameter {self.theta} outside [0, 1]")


@_node
class If(_Node):
    cond: Expr
    then_branch: Stmt
    else_branch: Stmt


@_node
class Observe(_Node):
    cond: Expr


@_node
class Seq(_Node):
    first: Stmt
    second: Stmt


Stmt = Union[Skip, Assign, Flip, If, Observe, Seq]


def expr_vars(e: Expr) -> Iterator[str]:
    """Variable names in ``e``, in textual (left-to-right) order."""
    return (node.name for node in e.walk() if type(node) is VarRef)


def seq_atoms(s: Stmt) -> list[Stmt]:
    """The non-``Seq`` statements of a sequence, in execution order.

    ``Seq`` nodes nested on either side are flattened (sequencing is
    associative); ``s`` itself is the only atom when it is not a ``Seq``.
    An explicit stack, since sequences nest as deep as they are long.
    """
    if not isinstance(s, Seq):
        return [s]
    atoms: list[Stmt] = []
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        else:
            atoms.append(node)
    return atoms


@dataclass(frozen=True)
class Program:
    """A statement plus derived bookkeeping.

    ``vars`` lists every program variable exactly once, in order of first
    textual appearance; ``flips`` lists the flip statements in textual
    order, one entry per occurrence, so a reused ``Flip`` node appears
    once for each of its draws.
    """

    body: Stmt
    vars: tuple[str, ...]
    flips: tuple[Flip, ...]

    @property
    def flip_count(self) -> int:
        return len(self.flips)

    @classmethod
    def from_stmt(cls, body: Stmt) -> "Program":
        seen: dict[str, None] = {}
        flips: list[Flip] = []
        for node in body.walk():
            kind = type(node)
            if kind is VarRef:
                seen.setdefault(node.name)
            elif kind is Assign:
                seen.setdefault(node.target)
            elif kind is Flip:
                seen.setdefault(node.target)
                flips.append(node)
        return cls(body=body, vars=tuple(seen), flips=tuple(flips))


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
    """The tokens of ``source``, ending with an "eof" token.

    Tokens carry offsets only; a ``ParseError`` computes its line and
    column from the offset when it is raised.
    """
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

    # stmt := atom (";" atom)* ";"?   (sequencing nests to the right)
    # atom := "if" expr "{" stmt "}" "else" "{" stmt "}" | simple
    #
    # Parsed without recursion, since "if"s nest as deep as they are
    # written: ``atoms`` holds the atoms of the innermost open sequence,
    # and ``outer`` has one entry per enclosing "if": the atoms of the
    # sequence the "if" belongs to, its condition, and its then branch
    # once that is closed.
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
            # a ";" and another atom continue the sequence; anything else
            # ends it, and a "}" then closes a branch of the innermost "if"
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
        """A statement other than "if"."""
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
                theta = self.parse_number()
                self.expect(")")
                return Flip(name, theta)
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

    # expr := orExpr, parsed without recursion: "!" and "(" nest as deep
    # as they are repeated.  ``ors`` and ``ands`` are the left-folded
    # "||" and "&&" operands so far and ``nots`` the pending "!"s of the
    # innermost open parenthesis; ``outer`` saves them for each one
    # enclosing it.
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
            # fold the operand in; a ")" closes a parenthesis, whose value
            # is then the next operand of the one enclosing it
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
    """Parse dippl source text into a Program.

    Raises ParseError (with line/column) on malformed input and ValueError
    when a flip parameter lies outside [0, 1].
    """
    parser = _Parser(source)
    body = parser.parse_stmt()
    parser.expect("eof")
    return Program.from_stmt(body)


def parse_expr(source: str) -> Expr:
    """Parse a standalone Boolean expression (used for query strings)."""
    parser = _Parser(source)
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


def _stmt_text(s: Stmt) -> str:
    """Source text of ``s`` on one line, built left to right with an
    explicit stack, since "if"s nest as deep as they are written."""
    out: list[str] = []
    # entries are statements still to print or text to emit
    stack: list = [s]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, Seq):
            atoms = seq_atoms(item)
            stack.append(atoms[-1])
            for atom in reversed(atoms[:-1]):
                stack += ("; ", atom)
        elif isinstance(item, Skip):
            out.append("skip")
        elif isinstance(item, Assign):
            out.append(f"{item.target} := {_expr_text(item.rhs)}")
        elif isinstance(item, Flip):
            out.append(f"{item.target} ~ flip({item.theta})")
        elif isinstance(item, Observe):
            out.append(f"observe({_expr_text(item.cond)})")
        elif isinstance(item, If):
            out.append(f"if {_expr_text(item.cond)} {{ ")
            stack += (" }", item.else_branch, " } else { ", item.then_branch)
        else:
            raise TypeError(f"not a statement: {item!r}")
    return "".join(out)


def unparse(program: Program | Stmt) -> str:
    """Render a program (or bare statement) as parseable source text.

    ``parse(unparse(p))`` is structurally equal to ``p`` for every
    program the parser can produce.  Hand-built ASTs round-trip when
    they are in the parser's normal form: sequences nested to the right
    (the grammar has no statement grouping, so a ``Seq`` chain always
    prints flat and reparses right-nested).
    """
    body = program.body if isinstance(program, Program) else program
    return ";\n".join(_stmt_text(atom) for atom in seq_atoms(body))


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
