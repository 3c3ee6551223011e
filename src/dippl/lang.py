"""Syntax of the dippl language: AST, parser and pretty-printer.

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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import islice, zip_longest
from typing import Iterator, Union


class ParseError(Exception):
    """Raised on malformed source text; carries 1-based line/column.

    Tokens keep no offsets: the parser scans the source again for the
    failing token's offset, and computes the line and column from it,
    only when it raises.
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
        theta = self.theta
        if type(theta) is not Fraction:
            if isinstance(theta, float):
                raise TypeError("flip parameters must be exact rationals, not floats")
            theta = Fraction(theta)
            object.__setattr__(self, "theta", theta)
        # a Fraction's denominator is positive
        if theta.numerator < 0 or theta.numerator > theta.denominator:
            raise ValueError(f"flip parameter {theta} outside [0, 1]")


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
    once for each of its draws.  ``inputs`` lists the variables no
    statement writes (by ``:=`` or ``~``), in the order of ``vars``.
    All three are derived from ``body``, so ``Program(body)`` is the one
    constructor.  The repr leaves ``inputs`` out.
    """

    body: Stmt
    vars: tuple[str, ...] = field(init=False)
    flips: tuple[Flip, ...] = field(init=False)
    inputs: tuple[str, ...] = field(init=False, repr=False)

    @property
    def flip_count(self) -> int:
        return len(self.flips)

    def __post_init__(self):
        seen: dict[str, None] = {}
        written: set[str] = set()
        flips: list[Flip] = []
        for node in self.body.walk():
            kind = type(node)
            if kind is VarRef:
                seen.setdefault(node.name)
            elif kind is Assign:
                seen.setdefault(node.target)
                written.add(node.target)
            elif kind is Flip:
                seen.setdefault(node.target)
                written.add(node.target)
                flips.append(node)
        object.__setattr__(self, "vars", tuple(seen))
        object.__setattr__(self, "flips", tuple(flips))
        object.__setattr__(self, "inputs", tuple([name for name in seen if name not in written]))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({"skip", "if", "else", "observe", "flip", "true", "false"})

# One ``findall`` scans the whole source: each match skips the whitespace
# and "//" comments before a token and captures the token's text, and
# the last match captures "" at the end (the "eof" token).  The skip
# takes all it can and never gives any back, since after it the source
# has ended or the next character is a token's first, or, by ``\S``, a
# token of one character (an operator, or an unexpected character).
_TOKEN_RE = re.compile(
    r"\s*(?://[^\n]*\s*)*([A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?|:=|\|\||&&|\S|\Z)"
)
# the kind of each token that is its own kind: keywords and operators
_FIXED_KINDS = {"": "eof", **{t: t for t in KEYWORDS | set(":= || && ~ ! ; ( ) { } /".split())}}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGIT = re.compile(r"\d").match


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _error(source: str, index: int, message: str) -> ParseError:
    """A ParseError at the ``index``-th token of ``source``, whose offset
    is found by scanning again: tokens keep no offsets."""
    match = next(islice(_TOKEN_RE.finditer(source), index, None))
    return ParseError(message, *_position(source, match.start(1)))


def _expected(source: str, texts: list[str], index: int, kind: str) -> ParseError:
    return _error(source, index, f"expected {kind!r}, found {texts[index] or 'end of input'!r}")


def _scan(source: str) -> tuple[list[str], list[str]]:
    """The token texts of ``source`` and their kinds, parallel lists that
    end with the "eof" token.  A kind is "decimal", "int", "ident", or
    the text itself for a keyword or operator; each distinct text is
    classified once.  An unexpected character anywhere raises ParseError
    before any parsing."""
    texts = _TOKEN_RE.findall(source)
    kind_of = dict(_FIXED_KINDS)
    for text in set(texts).difference(kind_of):
        kind_of[text] = ("ident" if text[0] in _IDENT_START else "bad" if not _DIGIT(text)
                         else "decimal" if "." in text else "int")
    kinds = list(map(kind_of.__getitem__, texts))
    if "bad" in kind_of.values():
        i = kinds.index("bad")
        raise _error(source, i, f"unexpected character {texts[i]!r}")
    return texts, kinds


# The parser walks the token lists by index, ``i`` being the next token;
# no check reads past the "eof" token, which matches no other kind.
# Statements are parsed without recursion, since "if"s nest as deep as
# they are written: ``atoms`` holds the atoms of the innermost open
# sequence (sequencing nests to the right), and ``outer`` has one entry
# per enclosing "if": the atoms of the sequence the "if" belongs to, its
# condition, and its then branch once that is closed.
def _stmt_at(source: str, texts: list[str], kinds: list[str]) -> tuple[Stmt, int]:
    """The statement that starts the source, and the index after it."""
    outer: list[tuple] = []
    atoms: list[Stmt] = []
    thetas: dict[tuple[str, str], Fraction] = {}  # each fraction's value, by its texts
    i = 0
    while True:
        kind = kinds[i]
        if kind == "if":
            cond, i = _expr_at(source, texts, kinds, i + 1)
            if kinds[i] != "{":
                raise _expected(source, texts, i, "{")
            outer.append((atoms, cond, None))
            atoms = []
            i += 1
            continue
        if kind == "ident":
            name = texts[i]
            kind = kinds[i + 1]
            if kind == ":=":
                rhs, i = _expr_at(source, texts, kinds, i + 2)
                atoms.append(Assign(name, rhs))
            elif kind == "~":
                if kinds[i + 2] != "flip":
                    raise _expected(source, texts, i + 2, "flip")
                if kinds[i + 3] != "(":
                    raise _expected(source, texts, i + 3, "(")
                i += 4
                number = i
                kind = kinds[i]  # number := decimal | integer "/" integer
                if kind == "int" and kinds[i + 1] == "/":
                    key = texts[i], texts[i + 2]
                    theta = thetas.get(key)
                    if theta is None:
                        if kinds[i + 2] != "int":
                            raise _expected(source, texts, i + 2, "int")
                        denominator = int(texts[i + 2])
                        if denominator == 0:
                            raise _error(source, i + 2, "zero denominator")
                        theta = thetas[key] = Fraction(int(texts[i]), denominator)
                    i += 2
                elif kind == "int":
                    theta = Fraction(int(texts[i]))
                elif kind == "decimal":
                    theta = Fraction(texts[i])
                else:
                    raise _error(source, i, "expected a number")
                if kinds[i + 1] != ")":
                    raise _expected(source, texts, i + 1, ")")
                i += 2
                try:
                    atoms.append(Flip(name, theta))
                except ValueError as exc:  # theta outside [0, 1]
                    raise _error(source, number, str(exc)) from None
            else:
                raise _error(source, i + 1, "expected ':=' or '~' after identifier")
        elif kind == "skip":
            i += 1
            atoms.append(Skip())
        elif kind == "observe":
            if kinds[i + 1] != "(":
                raise _expected(source, texts, i + 1, "(")
            cond, i = _expr_at(source, texts, kinds, i + 2)
            if kinds[i] != ")":
                raise _expected(source, texts, i, ")")
            i += 1
            atoms.append(Observe(cond))
        else:
            raise _error(source, i, f"expected a statement, found {texts[i] or 'end of input'!r}")
        # a ";" and another atom continue the sequence; anything else
        # ends it, and a "}" then closes a branch of the innermost "if"
        while True:
            if kinds[i] == ";":
                i += 1
                if kinds[i] != "eof" and kinds[i] != "}":
                    break
            stmt = atoms[-1]
            for atom in reversed(atoms[:-1]):
                stmt = Seq(atom, stmt)
            if not outer:
                return stmt, i
            if kinds[i] != "}":
                raise _expected(source, texts, i, "}")
            i += 1
            atoms, cond, then_branch = outer.pop()
            if then_branch is None:
                if kinds[i] != "else":
                    raise _expected(source, texts, i, "else")
                if kinds[i + 1] != "{":
                    raise _expected(source, texts, i + 1, "{")
                i += 2
                outer.append((atoms, cond, stmt))
                atoms = []
                break
            atoms.append(If(cond, then_branch, stmt))


# expr := orExpr, parsed without recursion: "!" and "(" nest as deep
# as they are repeated.  ``ors`` and ``ands`` are the left-folded
# "||" and "&&" operands so far and ``nots`` the pending "!"s of the
# innermost open parenthesis; ``outer`` saves them for each one
# enclosing it.
def _expr_at(source: str, texts: list[str], kinds: list[str], i: int) -> tuple[Expr, int]:
    """The expression that starts at token ``i``, and the index after it."""
    outer: list[tuple] = []
    ors = ands = None
    nots = 0
    while True:
        kind = kinds[i]
        while kind == "!":
            nots += 1
            i += 1
            kind = kinds[i]
        if kind == "(":
            outer.append((ors, ands, nots))
            ors = ands = None
            nots = 0
            i += 1
            continue
        if kind == "ident":
            expr = VarRef(texts[i])
        elif kind == "true":
            expr = TRUE
        elif kind == "false":
            expr = FALSE
        else:
            raise _error(source, i, f"expected an expression, found {texts[i] or 'end of input'!r}")
        i += 1
        # fold the operand in; a ")" closes a parenthesis, whose value
        # is then the next operand of the one enclosing it
        while True:
            for _ in range(nots):
                expr = Not(expr)
            ands = expr if ands is None else And(ands, expr)
            kind = kinds[i]
            if kind == "&&":
                break
            ors = ands if ors is None else Or(ors, ands)
            if kind == "||":
                ands = None
                break
            if not outer:
                return ors, i
            if kind != ")":
                raise _expected(source, texts, i, ")")
            i += 1
            expr = ors
            ors, ands, nots = outer.pop()
        i += 1
        nots = 0


def parse(source: str) -> Program:
    """Parse dippl source text into a Program.

    Raises ParseError (with line/column) on malformed input, a flip
    parameter outside [0, 1] included.
    """
    texts, kinds = _scan(source)
    body, i = _stmt_at(source, texts, kinds)
    if kinds[i] != "eof":
        raise _expected(source, texts, i, "eof")
    return Program(body)


def parse_expr(source: str) -> Expr:
    """Parse a standalone Boolean expression (used for query strings)."""
    texts, kinds = _scan(source)
    expr, i = _expr_at(source, texts, kinds, 0)
    if kinds[i] != "eof":
        raise _expected(source, texts, i, "eof")
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
