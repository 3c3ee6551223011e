import random
from fractions import Fraction

import pytest

import helpers
from dippl.lang import (
    TRUE,
    Assign,
    Flip,
    Observe,
    Program,
    Seq,
    Skip,
    UnknownVariable,
    parse,
    parse_expr,
)
from dippl.oracle import (
    INFEASIBLE,
    State,
    StateDistribution,
    accepting,
    all_states,
    eval_expr,
    output_marginal,
    transition,
)

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

BAR1 = "if x { y ~ flip(1/4) } else { y ~ flip(1/2) }"


def state_of(program, **bindings):
    base = {name: False for name in program.vars}
    base.update(bindings)
    return State.from_mapping(program.vars, base)


class TestState:
    def test_lookup_and_update(self):
        s = State(("x", "y"), (True, False))
        assert s["x"] and not s["y"]
        assert s.with_value("y", True)["y"]
        assert s.with_value("x", True) is s

    def test_unknown_variable(self):
        s = State(("x",), (True,))
        with pytest.raises(UnknownVariable):
            s["nope"]

    def test_from_mapping_must_be_total(self):
        with pytest.raises(UnknownVariable):
            State.from_mapping(("x", "y"), {"x": True})
        with pytest.raises(ValueError):
            State.from_mapping(("x",), {"x": True, "y": False})

    def test_all_states_count(self):
        assert len(list(all_states(("a", "b", "c")))) == 8

    def test_in_order(self):
        state = State(("x", "y"), (True, False))
        assert state.in_order(("x", "y")) is state
        swapped = state.in_order(("y", "x"))
        assert swapped.vars == ("y", "x")
        assert swapped.as_dict() == state.as_dict()
        for vars in [("x",), ("x", "y", "z"), ("x", "z")]:
            with pytest.raises(ValueError, match="state domain differs"):
                state.in_order(vars)

    def test_duplicated_variable_rejected(self):
        # ``y := x`` has the variables ("y", "x"); this state lists x twice
        program = parse("y := x")
        duplicated = State(("x", "x", "y"), (True, False, False))
        with pytest.raises(ValueError, match="state domain differs"):
            transition(program, duplicated)
        with pytest.raises(ValueError, match="state domain differs"):
            accepting(program, duplicated)
        with pytest.raises(ValueError, match="state domain differs"):
            output_marginal(program, duplicated, parse_expr("y"))
        with pytest.raises(ValueError, match="state domain differs"):
            duplicated.in_order(program.vars)

    def test_duplicated_variable_rejected_for_bare_statement(self):
        # a bare statement carries no variable list, so the state's own
        # list is checked: State["x"] reads True here, but the
        # interpreter read x as False and accepted with probability 0
        body = parse("observe(x)").body
        duplicated = State(("x", "x"), (True, False))
        with pytest.raises(ValueError, match="lists a variable twice"):
            accepting(body, duplicated)
        with pytest.raises(ValueError, match="lists a variable twice"):
            transition(body, duplicated)
        assert accepting(body, State(("x",), (True,))) == 1


class TestStateDistribution:
    def test_bottom_is_empty(self):
        bottom = StateDistribution.bottom()
        assert bottom.is_bottom
        assert not bottom.mass
        assert bottom.prob(State((), ())) == 0

    def test_zero_masses_dropped(self):
        s, t = State(("x",), (False,)), State(("x",), (True,))
        d = StateDistribution({s: Fraction(1), t: Fraction(0)})
        assert t not in d.mass
        assert d.total() == 1


class TestEvalExpr:
    def test_truth_table(self):
        s = State(("x", "y"), (True, False))
        assert eval_expr(parse_expr("x && !y"), s)
        assert eval_expr(parse_expr("true"), s)
        assert not eval_expr(parse_expr("x && y"), s)
        assert not eval_expr(parse_expr("y || !x"), s)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            eval_expr(parse_expr("q"), State(("x",), (True,)))


class TestAccepting:
    def test_violated_observe(self):
        program = parse("observe(x && !x)")
        assert accepting(program, state_of(program)) == 0

    def test_observe_free_program(self):
        program = parse(FIG_CHAIN)
        for state in all_states(program.vars):
            assert accepting(program, state) == 1

    def test_foo_bar2(self):
        # 1/3 of runs set x (always accepted); the other 2/3 survive the
        # observation only when the first y-flip lands true: 1/3 + 2/3 * 1/2
        program = parse(FOO_BAR2)
        for state in all_states(program.vars):
            assert accepting(program, state) == Fraction(2, 3)

    def test_matches_path_enumeration(self):
        program = parse(FOO_BAR2)
        env = {name: False for name in program.vars}
        assert helpers.path_accepting(program.body, env) == Fraction(2, 3)


class TestTransition:
    def test_skip_is_point_mass(self):
        program = parse("skip; x := x")
        state = state_of(program, x=True)
        dist = transition(program, state)
        assert dist == StateDistribution.point(state)

    def test_violated_observe_is_bottom(self):
        program = parse("observe(x)")
        assert transition(program, state_of(program, x=False)).is_bottom

    def test_foo_bar1_reaches_x_false_y_true(self):
        program = parse(FOO_BAR1)
        target = state_of(program, x=False, y=True)
        for init in all_states(program.vars):
            assert transition(program, init).prob(target) == Fraction(1, 3)

    def test_bar1_from_x_false(self):
        program = parse(BAR1)
        init = state_of(program, x=False)
        dist = transition(program, init)
        assert dist.prob(state_of(program, x=False, y=True)) == Fraction(1, 2)
        assert dist.prob(state_of(program, x=False, y=False)) == Fraction(1, 2)

    def test_unknown_written_variable(self):
        # a write to a variable outside the state is reported like a read
        state = State(("x",), (False,))
        with pytest.raises(UnknownVariable):
            transition(Assign("z", TRUE), state)
        with pytest.raises(UnknownVariable):
            transition(Flip("z", Fraction(1, 2)), state)

    def test_flip_splits_mass(self):
        program = parse("x ~ flip(2/7)")
        dist = transition(program, state_of(program))
        assert dist.prob(state_of(program, x=True)) == Fraction(2, 7)
        assert dist.prob(state_of(program, x=False)) == Fraction(5, 7)

    def test_matches_path_enumeration(self):
        rng = random.Random(7)
        for _ in range(40):
            program = helpers.random_program(rng, max_vars=4, max_flips=6, depth=3)
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            expected = helpers.path_transition(program.body, init.as_dict())
            dist = transition(program, init)
            if expected is None:
                assert dist.is_bottom
            else:
                actual = {
                    tuple(sorted(s.as_dict().items())): m for s, m in dist.mass.items()
                }
                assert actual == expected


class TestOutputMarginal:
    def test_chain_z(self):
        program = parse(FIG_CHAIN)
        init = state_of(program)
        assert output_marginal(program, init, parse_expr("z")) == Fraction(3, 4)
        # agreement with flip-outcome enumeration
        assert helpers.path_marginal(program, init.as_dict(), parse_expr("z")) == Fraction(3, 4)

    def test_foo_bar2_x(self):
        program = parse(FOO_BAR2)
        assert output_marginal(program, state_of(program), parse_expr("x")) == Fraction(1, 2)

    def test_query_true_is_one(self):
        program = parse(FIG_CHAIN)
        assert output_marginal(program, state_of(program), parse_expr("true")) == 1

    def test_infeasible(self):
        program = parse("observe(x && !x)")
        result = output_marginal(program, state_of(program), parse_expr("true"))
        assert result is INFEASIBLE


class TestSemanticProperties:
    def test_normalization(self):
        rng = random.Random(99)
        for _ in range(50):
            program = helpers.random_program(rng, max_vars=5, max_flips=8, depth=4)
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            dist = transition(program, init)
            if not dist.is_bottom:
                assert dist.total() == 1

    def test_observe_free_purity(self):
        rng = random.Random(41)
        for _ in range(40):
            program = helpers.random_program(
                rng, max_vars=5, max_flips=8, depth=4, observe_p=0.0
            )
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            assert accepting(program, init) == 1
            assert not transition(program, init).is_bottom

    def test_seq_associativity(self):
        rng = random.Random(17)
        names = ["a", "b", "c"]
        for _ in range(60):
            parts = [
                helpers._random_block(rng, names, 2, 2, 0.25, rng.randint(1, 2))[0]
                for _ in range(3)
            ]
            left = Seq(Seq(parts[0], parts[1]), parts[2])
            right = Seq(parts[0], Seq(parts[1], parts[2]))
            for state in all_states(tuple(names)):
                assert transition(left, state) == transition(right, state)
                assert accepting(left, state) == accepting(right, state)

    def test_skip_is_seq_identity(self):
        rng = random.Random(23)
        names = ["a", "b"]
        for _ in range(40):
            body = helpers._random_block(rng, names, 3, 2, 0.25, rng.randint(1, 2))[0]
            pre = Seq(Skip(), body)
            post = Seq(body, Skip())
            for state in all_states(tuple(names)):
                reference = transition(body, state)
                assert transition(pre, state) == reference
                assert transition(post, state) == reference
                assert accepting(pre, state) == accepting(body, state)
                assert accepting(post, state) == accepting(body, state)

    def test_bottom_iff_zero_acceptance(self):
        rng = random.Random(4)
        for _ in range(60):
            program = helpers.random_program(rng, max_vars=4, max_flips=5, depth=3, observe_p=0.35)
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            is_bottom = transition(program, init).is_bottom
            assert is_bottom == (accepting(program, init) == 0)


def test_program_state_reordered_by_name():
    program = parse("y := x")
    state = State(("x", "y"), (True, False))
    dist = transition(program, state)  # program vars are (y, x)
    (final, mass), = dist.mass.items()
    assert mass == 1
    assert final.as_dict() == {"x": True, "y": True}
