import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dippl
from dippl.lang import (
    And,
    Assign,
    Const,
    Diagnostic,
    FALSE,
    Flip,
    If,
    Not,
    Observe,
    Or,
    ParseError,
    Program,
    Seq,
    Skip,
    TRUE,
    VarRef,
    parse,
    parse_expr,
    relabel_flips,
    unparse,
    validate,
)

FIG_CHAIN = """
// three-variable chain
x ~ flip(0.5);
if x { y ~ flip(0.6) } else { y ~ flip(0.4) };
if y { z ~ flip(0.6) } else { z ~ flip(0.9) }
"""

BAR2 = """
y ~ flip(1/2);
observe(x || y);
if y { y ~ flip(1/2) } else { y := false }
"""


class TestParse:
    def test_smallest_program(self):
        program = parse("skip")
        assert program == Program(body=Skip(), vars=(), flip_count=0)

    def test_chain_program_shape(self):
        program = parse(FIG_CHAIN)
        assert program.vars == ("x", "y", "z")
        assert program.flip_count == 5
        first = program.body.first
        assert first == Flip("x", Fraction(1, 2), 0)

    def test_flip_labels_in_textual_order(self):
        program = parse(FIG_CHAIN)
        thetas = {}

        def collect(s):
            if isinstance(s, Flip):
                thetas[s.label] = s.theta
            elif isinstance(s, Seq):
                collect(s.first)
                collect(s.second)
            elif isinstance(s, If):
                collect(s.then_branch)
                collect(s.else_branch)

        collect(program.body)
        assert [thetas[i] for i in range(5)] == [
            Fraction(1, 2),
            Fraction(3, 5),
            Fraction(2, 5),
            Fraction(3, 5),
            Fraction(9, 10),
        ]

    def test_assign_observe_tree(self):
        program = parse("x := true; observe(x && !y)")
        assert program.body == Seq(
            Assign("x", TRUE), Observe(And(VarRef("x"), Not(VarRef("y"))))
        )
        assert program.vars == ("x", "y")

    def test_theta_literal_forms(self):
        assert parse("a ~ flip(0.6)").body.theta == Fraction(3, 5)
        assert parse("a ~ flip(1/4)").body.theta == Fraction(1, 4)
        assert parse("a ~ flip(1)").body.theta == 1
        assert parse("a ~ flip(0.125)").body.theta == Fraction(1, 8)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            parse("a ~ flip(3/2)")
        with pytest.raises(ValueError):
            parse("a ~ flip(1.5)")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("a ~ flip(1/0)")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as info:
            parse("skip;\nx := ;")
        assert info.value.line == 2
        assert info.value.column == 6

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("x := true % false")

    def test_precedence(self):
        expr = parse_expr("a || b && !c")
        assert expr == Or(VarRef("a"), And(VarRef("b"), Not(VarRef("c"))))

    def test_left_associativity(self):
        assert parse_expr("a || b || c") == Or(Or(VarRef("a"), VarRef("b")), VarRef("c"))
        assert parse_expr("a && b && c") == And(And(VarRef("a"), VarRef("b")), VarRef("c"))

    def test_parentheses(self):
        assert parse_expr("a && (b || c)") == And(VarRef("a"), Or(VarRef("b"), VarRef("c")))

    def test_trailing_separator_and_comments(self):
        program = parse("skip; // comment\nx := true;\n")
        assert isinstance(program.body, Seq)

    def test_sequencing_nests_right(self):
        body = parse("skip; x := true; skip").body
        assert isinstance(body, Seq)
        assert body.first == Skip()
        assert isinstance(body.second, Seq)

    def test_keywords_are_not_identifiers(self):
        with pytest.raises(ParseError):
            parse("if := true")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Program.from_stmt(
                Seq(Flip("x", Fraction(1, 2), 0), Flip("y", Fraction(1, 2), 0))
            )


# -- pretty-printer --------------------------------------------------------

_names = st.sampled_from(("a", "b", "c", "x", "y", "z_1", "_tmp"))
_thetas = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(1, 3)]
)

_exprs = st.deferred(
    lambda: st.one_of(
        st.sampled_from((TRUE, FALSE)),
        st.builds(VarRef, _names),
        st.builds(Not, _exprs),
        st.builds(And, _exprs, _exprs),
        st.builds(Or, _exprs, _exprs),
    )
)

# atoms in the parser's normal form: sequences nest to the right, so the
# strategy folds atom lists instead of generating arbitrary Seq trees
_atoms = st.deferred(
    lambda: st.one_of(
        st.just(Skip()),
        st.builds(Assign, _names, _exprs),
        st.builds(Flip, _names, _thetas, st.just(0)),
        st.builds(Observe, _exprs),
        st.builds(If, _exprs, _stmts, _stmts),
    )
)


def _fold_seq(atoms):
    stmt = atoms[-1]
    for atom in reversed(atoms[:-1]):
        stmt = Seq(atom, stmt)
    return stmt


_stmts = st.builds(_fold_seq, st.lists(_atoms, min_size=1, max_size=4))

_programs = st.builds(lambda body: Program.from_stmt(relabel_flips(body)), _stmts)


class TestUnparse:
    def test_skip(self):
        assert unparse(parse("skip")) == "skip"

    def test_chain_round_trip(self):
        program = parse(FIG_CHAIN)
        assert parse(unparse(program)) == program

    def test_right_nested_or_needs_parens(self):
        expr = Or(VarRef("a"), Or(VarRef("b"), VarRef("c")))
        program = Program.from_stmt(Observe(expr))
        assert parse(unparse(program)) == program

    @settings(max_examples=200)
    @given(_programs)
    def test_round_trip(self, program):
        assert parse(unparse(program)) == program

    @settings(max_examples=100)
    @given(_exprs)
    def test_expr_round_trip(self, expr):
        assert parse_expr(unparse(Observe(expr))[len("observe(") : -1]) == expr


# -- parser totality over grammar sentences ---------------------------------


def _random_sentence(rng, depth=4):
    def expr(d):
        roll = rng.random()
        if d == 0 or roll < 0.35:
            return rng.choice(["true", "false", "p", "q", "r"])
        if roll < 0.55:
            return f"!{expr(d - 1)}"
        if roll < 0.75:
            return f"{expr(d - 1)} && {expr(d - 1)}"
        if roll < 0.95:
            return f"{expr(d - 1)} || {expr(d - 1)}"
        return f"({expr(d - 1)})"

    def atom(d):
        roll = rng.random()
        if roll < 0.2:
            return "skip"
        if roll < 0.45:
            return f"{rng.choice('pqr')} := {expr(d)}"
        if roll < 0.65:
            number = rng.choice(["0.5", "1/3", "0", "1", "0.25", "7/8"])
            return f"{rng.choice('pqr')} ~ flip({number})"
        if roll < 0.85 and d > 0:
            return f"if {expr(d)} {{ {stmt(d - 1)} }} else {{ {stmt(d - 1)} }}"
        return f"observe({expr(d)})"

    def stmt(d):
        parts = [atom(d) for _ in range(rng.randint(1, 3))]
        tail = ";" if rng.random() < 0.3 else ""
        return "; ".join(parts) + tail

    return stmt(depth)


def test_parser_total_on_grammar():
    rng = random.Random(2024)
    for _ in range(300):
        sentence = _random_sentence(rng)
        program = parse(sentence)
        # labels strictly increase in textual order
        labels = [s.label for s in _flips_in_order(program.body)]
        assert labels == list(range(len(labels)))
        # and the printed form reparses to the same tree
        assert parse(unparse(program)) == program


def _flips_in_order(stmt):
    if isinstance(stmt, Flip):
        yield stmt
    elif isinstance(stmt, Seq):
        yield from _flips_in_order(stmt.first)
        yield from _flips_in_order(stmt.second)
    elif isinstance(stmt, If):
        yield from _flips_in_order(stmt.then_branch)
        yield from _flips_in_order(stmt.else_branch)


# -- validation --------------------------------------------------------------


class TestValidate:
    def test_chain_is_clean(self):
        assert validate(parse(FIG_CHAIN)) == []

    def test_read_before_assignment(self):
        diagnostics = validate(parse("y := x"))
        assert [d.var for d in diagnostics] == ["x"]
        assert all(d.severity == "warning" for d in diagnostics)

    def test_observe_of_unassigned(self):
        diagnostics = validate(parse(BAR2))
        assert [d.var for d in diagnostics] == ["x"]

    def test_branch_assignment_still_warns(self):
        source = "if true { x := true } else { skip }; y := x"
        assert [d.var for d in validate(parse(source))] == ["x"]

    def test_both_branch_assignment_is_clean(self):
        source = "if z { x := true } else { x := false }; y := x"
        assert [d.var for d in validate(parse(source))] == ["z"]

    def test_each_variable_reported_once(self):
        diagnostics = validate(parse("y := x && x; observe(x)"))
        assert [d.var for d in diagnostics] == ["x"]


def run_in_fresh_interpreter(code: str):
    """Run ``code`` in a fresh interpreter, which has the default
    recursion limit."""
    src = os.path.dirname(os.path.dirname(dippl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


def test_long_chain_walks_in_fresh_interpreter():
    # sequences nest as deep as they are long; a fresh interpreter has the
    # default recursion limit
    code = (
        "from dippl.generators import gen_chain\n"
        "from dippl.lang import flips_of, parse, relabel_flips, unparse, validate\n"
        "program = parse(gen_chain(1200, 3))\n"
        "assert validate(program) == []\n"
        "body = relabel_flips(program.body)\n"
        "assert [f.label for f in flips_of(body)] == list(range(program.flip_count))\n"
        "assert unparse(body) == unparse(program)\n"
    )
    result = run_in_fresh_interpreter(code)
    assert result.returncode == 0, result.stderr


def test_wide_expression_round_trips_in_fresh_interpreter():
    # a 1,500-term || over 5 variables nests 1,500 deep.  unparse must
    # give back the source, so that parse(unparse(p)) is parse(source),
    # which is p; == itself recurses on a tree this deep
    code = (
        "from dippl.lang import parse, unparse\n"
        "source = 'x := ' + ' || '.join(f'v{i % 5}' for i in range(1500))\n"
        "assert unparse(parse(source)) == source\n"
    )
    result = run_in_fresh_interpreter(code)
    assert result.returncode == 0, result.stderr
