import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import lang_reference
from dippl import lang
from dippl.generators import gen_chain, gen_grid, gen_ladder
from dippl.lang import (
    And,
    Assign,
    Const,
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
    unparse,
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
        assert program == Program(Skip())
        assert program.vars == program.flips == program.inputs == ()

    def test_chain_program_shape(self):
        program = parse(FIG_CHAIN)
        assert program.vars == ("x", "y", "z")
        assert program.flip_count == 5
        first = program.body.first
        assert first == Flip("x", Fraction(1, 2))

    def test_assign_observe_tree(self):
        program = parse("x := true; observe(x && !y)")
        assert program.body == Seq(
            Assign("x", TRUE), Observe(And(VarRef("x"), Not(VarRef("y"))))
        )
        assert program.vars == ("x", "y")

    def test_inputs_are_the_unwritten_variables(self):
        # y is written in one branch only and z after it is read; neither
        # is an input
        program = parse("if x { y := z } else { skip }; z ~ flip(1/2); observe(y || w)")
        assert program.vars == ("x", "y", "z", "w")
        assert program.inputs == ("x", "w")

    def test_theta_literal_forms(self):
        assert parse("a ~ flip(0.6)").body.theta == Fraction(3, 5)
        assert parse("a ~ flip(1/4)").body.theta == Fraction(1, 4)
        assert parse("a ~ flip(1)").body.theta == 1
        assert parse("a ~ flip(0.125)").body.theta == Fraction(1, 8)

    def test_theta_out_of_range(self):
        with pytest.raises(ParseError):
            parse("a ~ flip(3/2)")
        with pytest.raises(ParseError):
            parse("a ~ flip(1.5)")

    def test_theta_out_of_range_is_reported_at_its_number(self):
        with pytest.raises(ParseError) as info:
            parse("skip;\nx ~ flip(3/2)")
        assert str(info.value) == "2:10: flip parameter 3/2 outside [0, 1]"
        assert (info.value.line, info.value.column) == (2, 10)

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

    @pytest.mark.parametrize(
        "source, line, column, message",
        [
            ("// one\n// two\nx := true % false", 3, 11, "unexpected character '%'"),
            ("skip;\r\nx := ;", 2, 6, "expected an expression, found ';'"),
            ("skip;\r\n\r\nx := true $", 3, 11, "unexpected character '$'"),
            ("x :=\ttrue\t&& @", 1, 14, "unexpected character '@'"),
            ("x := true;\n\ty := ;", 2, 7, "expected an expression, found ';'"),
            ("x := \n", 2, 1, "expected an expression, found 'end of input'"),
            ("a ~ flip(1/0)", 1, 12, "zero denominator"),
            ("skip;\n  a ~ flip( 3 / 0 )", 2, 17, "zero denominator"),
            (
                "if a {\n  if b {\n    x := (a && (b || c)\n  } else { skip }\n} else { skip }",
                4,
                3,
                "expected ')', found '}'",
            ),
            ("if a { if b { skip } else { skip } }", 1, 37, "expected 'else', found 'end of input'"),
            (
                "if a {\n  if (b || !(c) { skip } else { skip }\n} else { skip }",
                2,
                17,
                "expected ')', found '{'",
            ),
            (
                "if a { x := true } else { if b { skip } else { y ~ flip(1/2 } }",
                1,
                61,
                "expected ')', found '}'",
            ),
        ],
    )
    def test_error_positions(self, source, line, column, message):
        # lines count "\n" only (a "\r" is whitespace) and columns count
        # characters, a tab as one
        with pytest.raises(ParseError) as info:
            parse(source)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"{line}:{column}: {message}"

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

    def test_float_theta_rejected(self):
        # 0.6 is not 3/5 in binary floating point
        with pytest.raises(TypeError):
            Flip("x", 0.6)
        assert Flip("x", "0.6").theta == Fraction(3, 5)


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
        st.builds(Flip, _names, _thetas),
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

_programs = st.builds(Program, _stmts)


class TestUnparse:
    def test_skip(self):
        assert unparse(parse("skip")) == "skip"

    def test_chain_round_trip(self):
        program = parse(FIG_CHAIN)
        assert parse(unparse(program)) == program

    def test_right_nested_or_needs_parens(self):
        expr = Or(VarRef("a"), Or(VarRef("b"), VarRef("c")))
        program = Program(Observe(expr))
        assert parse(unparse(program)) == program

    @settings(max_examples=200)
    @given(_programs)
    def test_round_trip(self, program):
        assert parse(unparse(program)) == program

    @settings(max_examples=100)
    @given(_exprs)
    def test_expr_round_trip(self, expr):
        assert parse_expr(unparse(Observe(expr))[len("observe(") : -1]) == expr


class TestStructuralEquality:
    def test_compares_type_and_every_field(self):
        a, b = VarRef("a"), VarRef("b")
        assert And(a, b) == And(VarRef("a"), VarRef("b"))
        assert hash(And(a, b)) == hash(And(VarRef("a"), VarRef("b")))
        assert And(a, b) != Or(a, b) and And(a, b) != And(b, a)
        assert Not(a) != a and a != "a"
        assert Flip("x", Fraction(1, 2)) != Flip("x", Fraction(1, 3))
        assert Seq(Skip(), Seq(Skip(), Skip())) != Seq(Seq(Skip(), Skip()), Skip())
        assert len({parse(FIG_CHAIN).body, parse(FIG_CHAIN).body}) == 1


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
        # the printed form reparses to the same tree
        assert parse(unparse(program)) == program


# -- differential test of the one-scan front end ---------------------------
#
# ``lang_reference`` is the token-object lexer and method-per-token parser
# that the one-scan front end replaced.  Both must return equal ASTs, or
# raise the same exception type with the same message, line and column.


def _outcome(parse_fn, source):
    try:
        return parse_fn(source)
    except Exception as error:
        return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)


def _check_same(source):
    for name in ("parse", "parse_expr"):
        got = _outcome(getattr(lang, name), source)
        want = _outcome(getattr(lang_reference, name), source)
        assert got == want, (name, source)


_generated = st.one_of(
    st.builds(gen_chain, st.integers(1, 12), st.integers(0, 99)),
    st.builds(gen_ladder, st.integers(1, 6)),
    st.builds(
        lambda k, d, seed: gen_grid(k, d, seed=seed),
        st.integers(1, 3),
        st.sampled_from(("0", "0.5", "0.9")),
        st.integers(0, 99),
    ),
)
_random_programs = st.builds(
    lambda seed: unparse(helpers.random_program(random.Random(seed), depth=3)),
    st.integers(0, 10**6),
)
_sources = st.one_of(
    st.builds(unparse, _programs),
    st.builds(lambda e: unparse(Observe(e))[len("observe(") : -1], _exprs),
    _generated,
    _random_programs,
)
# the grammar's characters, and ones it rejects or that only \d accepts
_EDIT_CHARS = "ab_xz019. \n:=~!;(){}/|&" + "\r\t%é²٣"


@st.composite
def _edited_sources(draw):
    """A source with one to three single-character insertions, deletions
    or substitutions."""
    source = draw(_sources)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(source)))
        char = draw(st.sampled_from(_EDIT_CHARS))
        edit = draw(st.sampled_from(("insert", "delete", "substitute")))
        if edit == "insert":
            source = source[:at] + char + source[at:]
        else:
            source = source[:at] + (char if edit == "substitute" else "") + source[at + 1 :]
    return source


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_sources)
    def test_valid_sources(self, source):
        _check_same(source)

    @settings(max_examples=400, deadline=None)
    @given(_edited_sources())
    def test_edited_sources(self, source):
        _check_same(source)

    @pytest.mark.parametrize(
        "source",
        [
            "skip // no newline at the end",
            "skip;\n// only a comment",
            "x := true //",
            "//",
            "",
            " \t\r\n",
            "x := ; %",
            "x := true\n%",
            "if := true",
            "x := flip",
            "skip ~ flip(1/2)",
            "x ~ flip(1/0)",
            "x ~ flip(3/2)",
            "x ~ flip(3/2) %",
            "x ~ flip(1.5) y",
            "x ~ flip(١/٢)",
            "x ~ flip(٠.٥)",
            "x ~ flip(1²)",
            "é := true",
            "x1é := true",
            "x ~ flip(1.)",
            "x ~ flip(.5)",
            "x ~ flip(1/2/3)",
            "x := a & b",
            "x := a | b",
            "x : = true",
            "x ~ flip(007/010)",
            "a//b := true",
            "x := (a || b",
            "x := a)",
        ],
    )
    def test_edge_cases(self, source):
        _check_same(source)

    def test_unexpected_character_beats_an_earlier_syntax_error(self):
        with pytest.raises(ParseError, match=r"^1:8: unexpected character '%'$"):
            parse("x := ; %")

    def test_unicode_decimal_digits_are_numbers(self):
        # \d accepts any decimal digit: ١/٢ is 1/2, but ² is no digit
        assert parse("x ~ flip(١/٢)").body.theta == Fraction(1, 2)
        with pytest.raises(ParseError, match="unexpected character '²'"):
            parse("x ~ flip(1²)")

    def test_parses_keep_no_state(self):
        assert parse(FIG_CHAIN).body is not parse(FIG_CHAIN).body
        assert parse_expr("a && b") is not parse_expr("a && b")


_theta_inputs = st.one_of(
    st.fractions(),
    st.integers(-2, 3),
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from(("0.6", "1/3", "3/2", "-1/4", "1", "x")),
)


@settings(max_examples=200)
@given(_theta_inputs)
def test_flip_validation_matches_conversion_and_range_check(theta):
    got = _outcome(lambda t: Flip("x", t).theta, theta)
    want = _outcome(lang_reference.flip_theta, theta)
    assert got == want
    if isinstance(got, Fraction):
        assert type(got) is Fraction


def test_long_chain_walks_in_fresh_interpreter():
    # sequences nest as deep as they are long; a fresh interpreter has the
    # default recursion limit
    code = (
        "from dippl.generators import gen_chain\n"
        "from dippl.lang import Flip, parse, unparse\n"
        "program = parse(gen_chain(1200, 3))\n"
        "assert program.flips == tuple(n for n in program.body.walk() if type(n) is Flip)\n"
        "assert parse(unparse(program)) == program\n"
        "text = repr(program)\n"
        "assert text.startswith('Program(body=Seq(first=Flip(target=')\n"
        "assert text.endswith(f'flips={program.flips!r})')\n"
    )
    result = helpers.run_fresh("-c", code)
    assert result.returncode == 0, result.stderr


def test_deep_if_round_trips_in_fresh_interpreter():
    # "if"s nest as deep as they are written; parse and unparse walk them
    code = (
        "from dippl.lang import parse, unparse\n"
        "text = 'x ~ flip(1/2);\\n' + 'if x { ' * 1000 + 'y := x' + ' } else { skip }' * 1000\n"
        "program = parse(text)\n"
        "assert unparse(program) == text\n"
        "assert parse(unparse(program)) == program\n"
    )
    result = helpers.run_fresh("-c", code)
    assert result.returncode == 0, result.stderr


def test_wide_expression_round_trips_in_fresh_interpreter():
    # a 1,500-term || over 5 variables nests 1,500 deep, and a 1,200-long
    # chain nests its sequence as deep; == and hash walk both
    code = (
        "from dippl.generators import gen_chain\n"
        "from dippl.lang import parse, unparse\n"
        "wide = 'x := ' + ' || '.join(f'v{i % 5}' for i in range(1500))\n"
        "assert unparse(parse(wide)) == wide\n"
        "for source, other in [(wide, wide + ' || v0'), (gen_chain(1200, 3), gen_chain(1200, 4))]:\n"
        "    program = parse(source)\n"
        "    assert parse(unparse(program)) == program\n"
        "    assert hash(parse(source).body) == hash(program.body)\n"
        "    assert parse(other) != program\n"
    )
    result = helpers.run_fresh("-c", code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "rhs, nots",
    [("!" * 3000 + "x", 3000), ("(" * 1500 + "x" + ")" * 1500, 0), ("!(" * 1000 + "x" + ")" * 1000, 1000)],
    ids=["3000-nots", "1500-parens", "1000-negated-parens"],
)
def test_deep_prefix_nesting_parses_in_fresh_interpreter(rhs, nots):
    # each "!" and "(" nests one level deeper; the parser does not recurse
    code = (
        "from dippl.lang import Not, VarRef, parse, unparse\n"
        f"program = parse('x ~ flip(1/2); y := {rhs}')\n"
        "assert parse(unparse(program)) == program\n"
        "e, depth = program.body.second.rhs, 0\n"
        "while isinstance(e, Not):\n"
        "    e, depth = e.inner, depth + 1\n"
        f"assert depth == {nots} and e == VarRef('x')\n"
        "assert repr(program).count('Not(inner=') == depth\n"
    )
    result = helpers.run_fresh("-c", code)
    assert result.returncode == 0, result.stderr
