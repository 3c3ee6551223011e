import random
import time
from fractions import Fraction

import pytest

import helpers
from dippl import infer, oracle
from dippl.bdd import NodeStore
from dippl.compiler import compile_expr, compile_program, state_cube
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

# reads the inputs a and d before writing them; b, c and e are written
# before they are read
READS_INPUTS = """
if a { b ~ flip(1/3) } else { b ~ flip(3/4) };
c := b || d;
observe(a || c);
e ~ flip(1/2);
if e { a := c } else { a ~ flip(1/5) }
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

    def test_partial_target_rejected(self):
        c = compiled("x ~ flip(1/2); y ~ flip(1/3)")
        with pytest.raises(ValueError):
            transition_prob(c, None, State(("x",), (True,)))
        with pytest.raises(ValueError):
            transition_prob(c, None, State(("x", "y", "z"), (True, True, True)))

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

    def test_long_chain_counts_in_fresh_interpreter(self):
        # counting does not recurse, so a chain too deep for a recursive
        # count on Python 3.10, which recurses on the C stack, answers
        # instead of crashing
        code = (
            "from dippl import accept_prob, compile_program, gen_chain, parse\n"
            "print(accept_prob(compile_program(parse(gen_chain(12000, 1)))))\n"
        )
        result = helpers.run_fresh("-X", "faulthandler", "-c", code)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout == "1\n"


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

    def test_result_fields_and_repr(self):
        result = event_prob(compiled(FOO_BAR2), None, parse_expr("x"))
        assert (result.value, result.numerator, result.denominator) == (
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(2, 3),
        )
        assert not result.infeasible
        assert repr(result) == (
            "InferenceResult(value=Fraction(1, 2), numerator=Fraction(1, 3), "
            f"denominator=Fraction(2, 3), stats=InferenceStats(query_ms={result.stats.query_ms!r}))"
        )
        rejected = event_prob(compiled("observe(x && !x)"), None, parse_expr("x"))
        assert rejected.infeasible and rejected.denominator == 0


class TestQueryTiming:
    @pytest.mark.parametrize("kind", ["event", "transition"])
    def test_query_ms_covers_conditioning(self, monkeypatch, kind):
        # query_ms runs from entry to answer, so a slow _conditioned shows
        c = compiled(FIG_CHAIN)
        conditioned = infer._conditioned

        def slow_conditioned(*args):
            time.sleep(0.05)
            return conditioned(*args)

        monkeypatch.setattr(infer, "_conditioned", slow_conditioned)
        if kind == "event":
            result = event_prob(c, None, parse_expr("z"))
        else:
            result = transition_prob(c, None, State.all_false(c.program.vars))
        assert result.stats.query_ms >= 50


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


class TestStateContract:
    # ``y := x`` has the variables ("y", "x"); this state lists x twice
    DUPLICATED = State(("x", "x", "y"), (True, False, False))

    def test_duplicated_start_rejected(self):
        c = compiled("y := x")
        with pytest.raises(ValueError, match="state domain differs"):
            event_prob(c, self.DUPLICATED, parse_expr("y"))
        with pytest.raises(ValueError, match="state domain differs"):
            accept_prob(c, self.DUPLICATED)

    def test_duplicated_target_rejected(self):
        c = compiled("y := x")
        with pytest.raises(ValueError, match="state domain differs"):
            transition_prob(c, None, self.DUPLICATED)

    @pytest.mark.parametrize("mode", ["marginal", "transition", "accepting"])
    def test_duplicated_start_rejected_by_check(self, mode):
        target = State.all_false(("y", "x")) if mode == "transition" else None
        query = Query(mode=mode, init_state=self.DUPLICATED, target=target)
        with pytest.raises(ValueError, match="state domain differs"):
            check_against_oracle(parse("y := x"), query)


class TestInfeasibleQuery:
    SOURCE = "x ~ flip(0); y ~ flip(1/2); observe(x)"

    def test_builds_no_numerator(self):
        c = compiled(self.SOURCE)
        target = state_for(c, x=True, y=True)
        # the conditioned diagram and the target cube, built up front
        assert accept_prob(c) == 0
        state_cube(target, c.banks.primed, c.store)
        before = len(c.store)
        result = transition_prob(c, None, target)
        assert result.value is INFEASIBLE
        assert result.numerator == 0
        assert len(c.store) == before

    def test_event_prob_infeasible(self):
        result = event_prob(compiled(self.SOURCE), None, parse_expr("x"))
        assert result.value is INFEASIBLE
        assert result.numerator == 0
        assert result.denominator == 0


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

    def test_partial_target_rejected(self):
        query = Query(mode="transition", target=State(("x",), (True,)))
        with pytest.raises(ValueError):
            check_against_oracle(parse("x ~ flip(1/2); y ~ flip(1/3)"), query)

    def test_target_in_any_variable_order(self):
        program = parse(FOO_BAR1)
        target = State(("y", "x"), (True, False))
        outcome = check_against_oracle(program, Query(mode="transition", target=target))
        assert outcome.equal
        assert outcome.oracle_value == Fraction(1, 3)

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


def _ask(compiled_program, kind, init, arg):
    """(value, numerator, denominator) of one query; accept has no ratio."""
    if kind == "accepting":
        return accept_prob(compiled_program, init), None, None
    if kind == "transition":
        result = transition_prob(compiled_program, init, arg)
    else:
        result = event_prob(compiled_program, init, arg)
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
        conditioned = infer._conditioned(c, init)
        universe = c.banks.universe
        denominator = helpers.reference_wmc(conditioned, c.banks.weights, universe)
        assert denominator == accept_prob(c, init)
        for name in (c.program.vars[-1], c.program.vars[len(c.program.vars) // 2]):
            result = event_prob(c, init, parse_expr(name))
            event = conditioned & c.store.var(c.banks.primed[name])
            assert result.denominator == denominator
            assert result.numerator == helpers.reference_wmc(event, c.banks.weights, universe)
            assert result.value == result.numerator / result.denominator
            table = c.store._count_layout(c.banks.weights, universe).table
            assert all(type(v) is int for v in table.values())


class TestSharedCountTable:
    """Queries on one compiled program share a table of node counts."""

    def test_matches_fresh_compile_and_oracle(self):
        rng = random.Random(71)
        seen = {"observe": 0, "infeasible": 0}
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
                got = _ask(c, kind, init, arg)
                assert got == _ask(compile_program(program), kind, init, arg)
                expected = _oracle_value(program, kind, init, arg)
                if expected is INFEASIBLE:
                    seen["infeasible"] += 1
                    assert got[0] is INFEASIBLE
                else:
                    assert got[0] == expected
                    assert isinstance(got[0], Fraction)
        assert all(seen.values()), seen

    def test_table_keeps_only_conditioned_nodes(self):
        # numerator diagrams outgrow phi|s many times over; a table
        # that kept their nodes would grow with every marginal
        c = compile_program(parse(gen_grid(4, "0.5", seed=1)))
        init = State.all_false(c.program.vars)
        for i in range(4):
            for j in range(4):
                assert event_prob(c, init, parse_expr(grid_var(i, j))).value is not INFEASIBLE
        conditioned = infer._conditioned(c, init)
        table = c.store._count_layout(c.banks.weights, c.banks.universe).table
        # the conditioned diagram's nodes and the two terminals, no more
        assert len(table) == c.store.node_count(conditioned) + 2


class TestKeptDenominator:
    """The store keeps the exact count of every root counted without an
    event, so a repeated denominator is a lookup: no pass, no node."""

    @staticmethod
    def count_passes(monkeypatch) -> list:
        passes = []
        count = NodeStore._count

        def counted(store, root, layout, memo):
            passes.append(root)
            return count(store, root, layout, memo)

        monkeypatch.setattr(NodeStore, "_count", counted)
        return passes

    @pytest.mark.parametrize(
        "source, first, later",
        [(gen_grid(4, "0.5", seed=1), "g3_3", "!g2_1"), (READS_INPUTS, "c", "!e")],
        ids=["grid4", "observe"],
    )
    def test_repeated_denominator_makes_no_pass(self, monkeypatch, source, first, later):
        c = compiled(source)
        init = State.all_false(c.program.vars)
        # the later query's event, built up front
        compile_expr(parse_expr(later), c.banks.primed, c.store)
        passes = self.count_passes(monkeypatch)
        asked = event_prob(c, init, parse_expr(first))
        assert passes
        del passes[:]
        before = len(c.store)
        assert accept_prob(c, init) == asked.denominator
        result = event_prob(c, init, parse_expr(later))
        assert passes == []
        assert len(c.store) == before
        assert result.denominator == asked.denominator
        assert (asked.denominator == 1) == (source != READS_INPUTS)
        fresh = event_prob(compiled(source), init, parse_expr(later))
        assert (result.value, result.numerator, result.denominator) == (
            fresh.value,
            fresh.numerator,
            fresh.denominator,
        )

    def test_clear_op_cache_recounts_once(self, monkeypatch):
        c = compiled(FOO_BAR2)
        kept = accept_prob(c)
        assert kept == Fraction(2, 3)
        passes = self.count_passes(monkeypatch)
        c.store.clear_op_cache()
        recounted = accept_prob(c)
        assert len(passes) == 1
        assert recounted == kept and type(recounted) is Fraction
        assert accept_prob(c) == kept
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "source", [gen_grid(4, "0.5", seed=1), gen_chain(20, seed=2), FIG_CHAIN],
        ids=["grid4", "chain20", "fig-chain"],
    )
    def test_observe_free_value_is_the_numerator(self, source):
        c = compiled(source)
        init = State.all_false(c.program.vars)
        last = c.program.vars[-1]
        results = [event_prob(c, init, parse_expr(last)), event_prob(c, init, parse_expr(last))]
        results.append(infer.marginals(c, init)[last])
        for result in results:
            assert result.denominator == 1
            # the numerator itself: no division ran
            assert result.value is result.numerator
            assert type(result.value) is Fraction


class TestConditionByRestriction:
    """Queries count on the cofactor ``phi|s`` over the primed and flip
    banks.  Its counts are those of the conjunction ``phi & <s>`` over
    the input bank as well, which weighs every literal 1."""

    def test_counts_equal_the_conjunction_and_oracle(self):
        rng = random.Random(113)
        seen = {"observe": 0, "infeasible": 0, "feasible": 0}
        for _ in range(200):
            program = helpers.random_program(rng, max_vars=5, max_flips=6, depth=3, observe_p=0.3)
            c = compile_program(program)
            store, banks = c.store, c.banks
            seen["observe"] += "observe(" in unparse(program)
            names = list(program.vars)
            wide = banks.universe | set(banks.unprimed.values())
            for _ in range(2):
                init = State(names, tuple(rng.random() < 0.5 for _ in names))
                target = State(names, tuple(rng.random() < 0.5 for _ in names))
                event = helpers.random_expr(rng, names)
                asks = [
                    (transition_prob(c, init, target), ("transition", target),
                     state_cube(target, banks.primed, store)),
                    (event_prob(c, init, event), ("marginal", event),
                     compile_expr(event, banks.primed, store)),
                ]
                for name, result in infer.marginals(c, init).items():
                    asks.append((result, ("marginal", parse_expr(name)),
                                 store.var(banks.primed[name])))
                reference = c.phi & state_cube(init, banks.unprimed, store)
                denominator = store.wmc(reference, banks.weights, wide)
                assert accept_prob(c, init) == denominator == oracle.accepting(program, init)
                seen["infeasible" if denominator == 0 else "feasible"] += 1
                for result, (kind, arg), event_bdd in asks:
                    numerator = store.wmc(reference & event_bdd, banks.weights, wide)
                    assert result.denominator == denominator
                    assert result.numerator == numerator
                    assert result.value == _oracle_value(program, kind, init, arg)
        assert all(seen.values()), seen

    @staticmethod
    def count_walks(monkeypatch) -> list:
        # restriction is a walk of ``_and_exists``, which compiling also
        # runs: count after the compile
        walks = []
        walk = NodeStore._and_exists

        def counted(store, x, y, qvars, shift):
            walks.append(x)
            return walk(store, x, y, qvars, shift)

        monkeypatch.setattr(NodeStore, "_and_exists", counted)
        return walks

    def test_repeated_start_state_is_one_lookup(self, monkeypatch):
        c = compile_program(parse(READS_INPUTS))
        walks = self.count_walks(monkeypatch)
        assert [c.program.vars[i] for i in c.reads] == ["a", "d"]
        init = state_for(c, a=True, d=True)
        target = state_for(c, a=True, b=True, c=True, d=True)
        first = event_prob(c, init, parse_expr("c"))
        # the later queries' events, built up front
        transition_prob(c, init, target)
        infer.marginals(c, init)
        assert len(walks) == 1
        before = len(c.store)
        # the same start state, its variables listed in another order
        reordered = State(reversed(init.vars), reversed(init.values))
        assert accept_prob(c, reordered) == first.denominator
        assert event_prob(c, reordered, parse_expr("b")).denominator == first.denominator
        transition_prob(c, init, target)
        infer.marginals(c, init)
        # a start state that differs only in inputs phi never reads
        unread = state_for(c, a=True, b=True, d=True, e=True)
        assert event_prob(c, unread, parse_expr("c")).value == first.value
        assert len(c.store) == before
        assert len(walks) == 1
        # a missing start state is all-false, one more start state
        event_prob(c, None, parse_expr("c"))
        event_prob(c, State.all_false(c.program.vars), parse_expr("c"))
        assert len(walks) == 2
        # clearing the cache frees the cofactors
        c.store.clear_op_cache()
        assert event_prob(c, init, parse_expr("c")).value == first.value
        assert len(walks) == 3

    def test_program_reading_no_input_makes_no_walk(self, monkeypatch):
        # a grid writes every variable before reading it: phi is its own
        # cofactor on every start state
        c = compile_program(parse(gen_grid(4, "0.5", seed=1)))
        walks = self.count_walks(monkeypatch)
        assert c.reads == ()
        init = state_for(c, g0_0=True, g1_2=True)
        assert infer._conditioned(c, init) == c.phi
        first = event_prob(c, init, parse_expr("g3_3"))
        assert event_prob(c, None, parse_expr("g3_3")).value == first.value
        infer.marginals(c, init)
        assert walks == []
        # the start state is still checked
        with pytest.raises(ValueError):
            event_prob(c, State(("g0_0",), (True,)), parse_expr("g3_3"))


class TestMarginals:
    """``marginals`` answers every variable from one conditioning, one
    denominator and one table of literal counts."""

    @pytest.mark.parametrize(
        "source",
        [
            gen_chain(60, seed=5),
            *(gen_grid(k, d, seed=k) for k in (4, 5) for d in ("0", "0.5", "0.9")),
        ],
        ids=["chain60", *(f"grid{k}-{d}" for k in (4, 5) for d in ("0", "0.5", "0.9"))],
    )
    def test_matches_event_prob(self, source):
        c = compile_program(parse(source))
        rng = random.Random(len(source))
        init = State(c.program.vars, tuple(rng.random() < 0.5 for _ in c.program.vars))
        for start in (None, init):
            results = infer.marginals(c, start)
            assert list(results) == list(c.program.vars)
            fresh = compile_program(c.program)
            store, banks = fresh.store, fresh.banks
            conditioned = infer._conditioned(fresh, start)
            for name, result in results.items():
                single = event_prob(fresh, start, parse_expr(name))
                assert (result.value, result.numerator, result.denominator) == (
                    single.value,
                    single.numerator,
                    single.denominator,
                )
                # the count of the conjunction, which no marginal builds
                event = conditioned & store.var(banks.primed[name])
                assert result.numerator == store.wmc(event, banks.weights, banks.universe)

    def test_matches_oracle_with_observe(self):
        rng = random.Random(97)
        seen = {"observe": 0, "infeasible": 0, "feasible": 0}
        for _ in range(120):
            program = helpers.random_program(rng, max_vars=5, max_flips=6, depth=3, observe_p=0.3)
            c = compile_program(program)
            seen["observe"] += "observe(" in unparse(program)
            for _ in range(2):
                init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
                results = infer.marginals(c, init)
                assert list(results) == list(program.vars)
                if oracle.transition(program, init).is_bottom:
                    seen["infeasible"] += 1
                    for result in results.values():
                        assert result.value is INFEASIBLE
                        assert result.numerator == 0 and result.denominator == 0
                    continue
                seen["feasible"] += 1
                for name, result in results.items():
                    expected = oracle.output_marginal(program, init, parse_expr(name))
                    assert result.value == expected
                    assert result.value == result.numerator / result.denominator
        assert all(seen.values()), seen

    def test_chain_marginals_leave_the_weighted_slot_empty(self):
        # a marginal asks a primed literal, which weighs (1, 1), so no
        # literal pass credits the flips' weighted class
        c = compile_program(parse(gen_chain(300, seed=3)))
        store, banks = c.store, c.banks
        last = c.program.vars[-1]
        first = event_prob(c, None, parse_expr(last))
        results = infer.marginals(c)
        conditioned = infer._conditioned(c, None)
        slots = store._count_layout(banks.weights, banks.universe).literals[conditioned.idx]
        weighted, unit = slots
        assert weighted is None and unit is not None
        assert results[last].numerator == first.numerator
        for name, result in results.items():
            event = conditioned & store.var(banks.primed[name])
            assert result.numerator == store.wmc(event, banks.weights, banks.universe)
        assert slots == [None, unit]

    def test_second_literal_marginal_builds_nothing(self, monkeypatch):
        passes = []
        literal_counts = NodeStore._literal_counts

        def counted(store, root, layout, unit):
            passes.append(root)
            return literal_counts(store, root, layout, unit)

        monkeypatch.setattr(NodeStore, "_literal_counts", counted)
        c = compile_program(parse(gen_grid(4, "0.5", seed=1)))
        init = state_for(c, g0_0=True)
        first = event_prob(c, init, parse_expr("g3_3"))
        # the literals the later queries ask for, built up front
        for name in ("g2_1", "g1_2"):
            compile_expr(parse_expr(f"!{name}"), c.banks.primed, c.store)
        before = len(c.store)
        second = event_prob(c, init, parse_expr("g2_1"))
        negated = event_prob(c, init, parse_expr("!g1_2"))
        assert len(c.store) == before
        assert len(passes) == 1
        assert second.denominator == negated.denominator == first.denominator
        fresh = compile_program(c.program)
        assert second.value == event_prob(fresh, init, parse_expr("g2_1")).value
        assert negated.value == event_prob(fresh, init, parse_expr("!g1_2")).value
