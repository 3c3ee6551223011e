import random
from fractions import Fraction

import pytest

import helpers
from dippl import oracle
from dippl.compiler import compile_program, state_cube
from dippl.generators import gen_chain, gen_grid, grid_var
from dippl.infer import (
    OracleTooLarge,
    Query,
    accept_prob,
    check_against_oracle,
    event_prob,
    transition_prob,
)
from dippl.lang import parse, parse_expr, unparse
from dippl.oracle import INFEASIBLE, State

FIG_CHAIN = """
x ~ flip(0.5);
if x { y ~ flip(0.6) } else { y ~ flip(0.4) };
if y { z ~ flip(0.6) } else { z ~ flip(0.9) }
"""

FOO_BAR1 = """
x ~ flip(1/3);
if x { y ~ flip(1/4) } else { y ~ flip(1/2) }
"""

FOO_BAR2 = """
x ~ flip(1/3);
y ~ flip(1/2);
observe(x || y);
if y { y ~ flip(1/2) } else { y := false }
"""


def compiled(source):
    return compile_program(parse(source))


def state_for(compiled_program, **bindings):
    vars = compiled_program.program.vars
    base = {name: False for name in vars}
    base.update(bindings)
    return State.from_mapping(vars, base)


class TestTransitionProb:
    def test_foo_bar1(self):
        c = compiled(FOO_BAR1)
        result = transition_prob(c, None, state_for(c, x=False, y=True))
        assert result.value == Fraction(1, 3)
        assert result.numerator / result.denominator == result.value

    def test_skip_program(self):
        c = compiled("skip; x := x")
        here = state_for(c, x=True)
        elsewhere = state_for(c, x=False)
        assert transition_prob(c, here, here).value == 1
        assert transition_prob(c, here, elsewhere).value == 0

    def test_chain_all_true(self):
        c = compiled(FIG_CHAIN)
        result = transition_prob(c, None, state_for(c, x=True, y=True, z=True))
        assert result.value == Fraction(9, 50)  # 1/2 * 3/5 * 3/5

    def test_infeasible_from(self):
        c = compiled("observe(x)")
        result = transition_prob(c, state_for(c, x=False), state_for(c, x=False))
        assert result.value is INFEASIBLE
        assert result.infeasible
        assert result.denominator == 0


class TestAcceptProb:
    def test_observe_free(self):
        assert accept_prob(compiled(FIG_CHAIN)) == 1

    def test_foo_bar2(self):
        assert accept_prob(compiled(FOO_BAR2)) == Fraction(2, 3)

    def test_always_rejecting(self):
        assert accept_prob(compiled("observe(x && !x)")) == 0


class TestEventProb:
    def test_chain_complement(self):
        c = compiled(FIG_CHAIN)
        assert event_prob(c, None, parse_expr("z")).value == Fraction(3, 4)
        assert event_prob(c, None, parse_expr("!z")).value == Fraction(1, 4)

    def test_true_event(self):
        c = compiled(FOO_BAR2)
        assert event_prob(c, None, parse_expr("true")).value == 1

    def test_foo_bar2_x(self):
        c = compiled(FOO_BAR2)
        assert event_prob(c, None, parse_expr("x")).value == Fraction(1, 2)

    def test_default_init_is_all_false(self):
        c = compiled("y := x")
        assert event_prob(c, None, parse_expr("y")).value == 0

    def test_float_mode(self):
        c = compiled(FIG_CHAIN)
        value = event_prob(c, None, parse_expr("z"), as_float=True).value
        assert isinstance(value, float)
        assert abs(value - 0.75) < 1e-12


class TestFloatFormatting:
    """``as_float`` formats the exact answer; it is not another arithmetic."""

    def test_float_mode_converts_the_exact_answer(self):
        c = compiled(FOO_BAR2)
        init = state_for(c)
        asks = [
            lambda as_float: transition_prob(c, init, state_for(c, x=True), as_float=as_float),
            lambda as_float: event_prob(c, init, parse_expr("x"), as_float=as_float),
            lambda as_float: event_prob(c, init, parse_expr("x && !y"), as_float=as_float),
        ]
        for ask in asks:
            exact, approx = ask(False), ask(True)
            assert isinstance(exact.value, Fraction)
            for field in ("value", "numerator", "denominator"):
                got = getattr(approx, field)
                assert type(got) is float
                assert got == float(getattr(exact, field))
        exact_accept = accept_prob(c, init)
        assert exact_accept == Fraction(2, 3)
        assert accept_prob(c, init, as_float=True) == float(exact_accept)

    def test_infeasible_stays_infeasible(self):
        c = compiled("x ~ flip(1/3); observe(x && !x)")
        result = event_prob(c, None, parse_expr("x"), as_float=True)
        assert result.value is INFEASIBLE
        assert (result.numerator, result.denominator) == (0.0, 0.0)
        assert type(result.numerator) is float and type(result.denominator) is float


class TestQueryProperties:
    def test_complementarity(self):
        rng = random.Random(61)
        for _ in range(25):
            program = helpers.random_program(rng, max_vars=5, max_flips=6, depth=3)
            c = compile_program(program)
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            event = helpers.random_expr(rng, list(program.vars))
            positive = event_prob(c, init, event)
            if positive.value is INFEASIBLE:
                continue
            from dippl.lang import Not

            negative = event_prob(c, init, Not(event))
            assert positive.value + negative.value == 1

    def test_disjunction_monotonicity(self):
        rng = random.Random(67)
        from dippl.lang import Or

        for _ in range(25):
            program = helpers.random_program(rng, max_vars=5, max_flips=6, depth=3)
            c = compile_program(program)
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            e1 = helpers.random_expr(rng, list(program.vars))
            e2 = helpers.random_expr(rng, list(program.vars))
            joined = event_prob(c, init, Or(e1, e2))
            if joined.value is INFEASIBLE:
                continue
            assert joined.value >= event_prob(c, init, e1).value
            assert joined.value >= event_prob(c, init, e2).value

    def test_one_compile_many_queries(self):
        c = compiled(FIG_CHAIN)
        phi_before = c.phi
        first = event_prob(c, None, parse_expr("z || !x"))
        second = event_prob(c, None, parse_expr("z || !x"))
        assert first.value == second.value
        assert c.phi == phi_before
        assert c.phi.idx == phi_before.idx

    def test_mismatched_state_domain(self):
        c = compiled(FIG_CHAIN)
        with pytest.raises(ValueError):
            event_prob(c, State(("nope",), (True,)), parse_expr("z"))


class TestCheckAgainstOracle:
    def test_chain_marginal(self):
        outcome = check_against_oracle(
            parse(FIG_CHAIN), Query(mode="marginal", event=parse_expr("z"))
        )
        assert outcome.equal
        assert outcome.oracle_value == Fraction(3, 4)
        assert outcome.compiled_value == Fraction(3, 4)

    def test_foo_bar1_transition(self):
        program = parse(FOO_BAR1)
        target = State.from_mapping(program.vars, {"x": False, "y": True})
        outcome = check_against_oracle(
            program, Query(mode="transition", target=target)
        )
        assert outcome.equal
        assert outcome.compiled_value == Fraction(1, 3)

    def test_accepting_mode(self):
        outcome = check_against_oracle(parse(FOO_BAR2), Query(mode="accepting"))
        assert outcome.equal
        assert outcome.compiled_value == Fraction(2, 3)

    def test_infeasible_agreement(self):
        outcome = check_against_oracle(
            parse("observe(x && !x)"), Query(mode="marginal", event=parse_expr("true"))
        )
        assert outcome.equal
        assert outcome.oracle_value is INFEASIBLE
        assert outcome.compiled_value is INFEASIBLE

    def test_oracle_too_large(self):
        names = "; ".join(f"v{i} := true" for i in range(13))
        with pytest.raises(OracleTooLarge, match="13 variables exceed the cap of 12"):
            check_against_oracle(parse(names), Query(mode="accepting"))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            Query(mode="transition")
        with pytest.raises(ValueError):
            Query(mode="nonsense")
        assert Query(mode="marginal").event is not None


def _ask(compiled_program, kind, init, arg, as_float):
    """(value, numerator, denominator) of one query; accept has no ratio."""
    if kind == "accepting":
        return accept_prob(compiled_program, init, as_float=as_float), None, None
    if kind == "transition":
        result = transition_prob(compiled_program, init, arg, as_float=as_float)
    else:
        result = event_prob(compiled_program, init, arg, as_float=as_float)
    return result.value, result.numerator, result.denominator


def _oracle_value(program, kind, init, arg):
    if kind == "accepting":
        return oracle.accepting(program, init)
    if kind == "transition":
        dist = oracle.transition(program, init)
        return INFEASIBLE if dist.is_bottom else dist.prob(arg)
    return oracle.output_marginal(program, init, arg)


class TestIntegerCounts:
    """Scaled int counts give the numerators and denominators of the
    ``Fraction`` model counter, on diagrams too wide to enumerate."""

    @pytest.mark.parametrize(
        "source",
        [gen_chain(300, seed=2), *(gen_grid(6, d, seed=3) for d in ("0", "0.5", "0.9"))],
        ids=["chain300", "grid6-0", "grid6-0.5", "grid6-0.9"],
    )
    def test_matches_fraction_reference(self, source):
        c = compile_program(parse(source))
        init = State.all_false(c.program.vars)
        conditioned = c.phi & state_cube(init, c.banks.unprimed, c.store)
        universe = c.banks.universe
        denominator = helpers.reference_wmc(conditioned, c.weights, universe)
        assert denominator == accept_prob(c, init)
        for name in (c.program.vars[-1], c.program.vars[len(c.program.vars) // 2]):
            result = event_prob(c, init, parse_expr(name))
            event = conditioned & c.store.var(c.banks.primed[name])
            assert result.denominator == denominator
            assert result.numerator == helpers.reference_wmc(event, c.weights, universe)
            assert result.value == result.numerator / result.denominator
            assert all(type(v) is int for v in c.exact_counts.values())


class TestSharedCountTable:
    """Queries on one compiled program share a table of node counts."""

    def test_matches_fresh_compile_and_oracle(self):
        rng = random.Random(71)
        seen = {"observe": 0, "infeasible": 0, "float": 0}
        for _ in range(200):
            program = helpers.random_program(rng, max_vars=5, max_flips=6, depth=3, observe_p=0.3)
            c = compile_program(program)
            seen["observe"] += "observe(" in unparse(program)
            asks = []
            for _ in range(3):
                init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
                target = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
                asks.append(("accepting", init, None))
                asks.append(("transition", init, target))
                for _ in range(2):
                    asks.append(("marginal", init, helpers.random_expr(rng, list(program.vars))))
            # each query twice, so repeated denominators and numerators
            # are read back from the table
            asks *= 2
            rng.shuffle(asks)
            for kind, init, arg in asks:
                as_float = rng.random() < 0.3
                got = _ask(c, kind, init, arg, as_float)
                assert got == _ask(compile_program(program), kind, init, arg, as_float)
                expected = _oracle_value(program, kind, init, arg)
                if expected is INFEASIBLE:
                    seen["infeasible"] += 1
                    assert got[0] is INFEASIBLE
                elif as_float:
                    seen["float"] += 1
                    assert isinstance(got[0], float)
                    assert abs(got[0] - float(expected)) < 1e-9
                else:
                    assert got[0] == expected
                    assert isinstance(got[0], Fraction)
        assert all(seen.values()), seen

    def test_table_keeps_only_conditioned_nodes(self):
        # numerator diagrams outgrow phi & <s> many times over; a table
        # that kept their nodes would grow with every marginal
        c = compile_program(parse(gen_grid(4, "0.5", seed=1)))
        init = State.all_false(c.program.vars)
        for i in range(4):
            for j in range(4):
                assert event_prob(c, init, parse_expr(grid_var(i, j))).value is not INFEASIBLE
        conditioned = c.phi & state_cube(init, c.banks.unprimed, c.store)
        assert len(c.exact_counts) <= c.store.node_count(conditioned) + 2
