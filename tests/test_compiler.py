import itertools
import random
import sys
from fractions import Fraction

import pytest

import helpers
from dippl import compiler
from dippl.bdd import NodeStore, UnknownVar, WeightFn
from dippl.compiler import (
    allocate_banks,
    compile_expr,
    compile_program,
    compile_stmt,
    gamma,
    state_cube,
)
from dippl.generators import gen_chain, gen_grid, gen_ladder
from dippl.infer import Query, check_against_oracle
from dippl.lang import (
    Assign,
    Flip,
    If,
    Program,
    Seq,
    Skip,
    UnknownVariable,
    VarRef,
    parse,
    parse_expr,
    seq_atoms,
    unparse,
)
from dippl.oracle import State, all_states, eval_expr

FIG_CHAIN = """
x ~ flip(0.5);
if x { y ~ flip(0.6) } else { y ~ flip(0.4) };
if y { z ~ flip(0.6) } else { z ~ flip(0.9) }
"""

FOO_BAR1 = """
x ~ flip(1/3);
if x { y ~ flip(1/4) } else { y ~ flip(1/2) }
"""

LADDER2 = "x ~ flip(0.6);\ny ~ flip(0.7)"

COND_INDEP = """
z ~ flip(0.5);
if z {
  x ~ flip(0.6);
  y ~ flip(0.7)
} else {
  x ~ flip(0.4);
  y := x
}
"""


class TestVariableOrder:
    def test_chain_interleaves_flips_with_triples(self):
        store, banks = allocate_banks(parse(FIG_CHAIN))
        names = [store.var_name(v) for v in range(store.num_vars)]
        assert names == [
            "f0", "x", "x'", "x''",
            "f1", "f2", "y", "y'", "y''",
            "f3", "f4", "z", "z'", "z''",
        ]

    def test_inputs_lead(self):
        program = parse("y ~ flip(1/2); observe(x || y)")
        store, banks = allocate_banks(program)
        names = [store.var_name(v) for v in range(store.num_vars)]
        assert names == ["x", "x'", "x''", "y", "y'", "y''"][0:3] + ["f0", "y", "y'", "y''"]

    def test_written_variables_follow_in_program_order(self):
        # c is written but never flipped, so it stays where the program
        # computes it, after b's flip and triple
        store, banks = allocate_banks(parse("a := true; b ~ flip(1/2); c := a && b"))
        names = [store.var_name(v) for v in range(store.num_vars)]
        assert names == ["a", "a'", "a''", "f0", "b", "b'", "b''", "c", "c'", "c''"]

    def test_grid_size_under_dataflow_order(self):
        # six variables here are written by assignments alone; moved to
        # the top of the order, away from their parents, they give 14,049
        compiled = compile_program(parse(gen_grid(7, "0.5", seed=7)))
        assert compiled.stats.node_count <= 3450

    def test_triples_are_adjacent(self):
        store, banks = allocate_banks(parse(FIG_CHAIN))
        for name in banks.unprimed:
            u = banks.unprimed[name]
            assert banks.primed[name] == u + 1
            assert banks.double_primed[name] == u + 2

    def test_inputs_follow_program_vars(self):
        # the unprimed ids in the order of a start state's values; here the
        # input x leads the store order, but y comes first in vars
        program = parse("y ~ flip(1/2); observe(x || y)")
        store, banks = allocate_banks(program)
        assert program.vars == ("y", "x")
        assert banks.inputs == (banks.unprimed["y"], banks.unprimed["x"])
        assert [store.var_name(v) for v in banks.inputs] == ["y", "x"]

    def test_universe_excludes_double_primes(self):
        store, banks = allocate_banks(parse(FIG_CHAIN))
        assert set(banks.double_primed.values()).isdisjoint(banks.universe)
        assert set(banks.flips) <= banks.universe
        # counts run on cofactors, whose input bank is fixed
        assert banks.universe == set(banks.primed.values()) | set(banks.flips)

    def test_flips_listed_in_textual_order(self):
        # the k-th flip in textual order is f{k}, weighted by its theta
        program = parse(FIG_CHAIN)
        store, banks = allocate_banks(program)
        flips = program.flips
        assert [flip.theta for flip in flips] == [
            Fraction(1, 2), Fraction(3, 5), Fraction(2, 5), Fraction(3, 5), Fraction(9, 10)
        ]
        assert len(banks.flips) == len(flips)
        for k, (var, flip) in enumerate(zip(banks.flips, flips)):
            assert store.var_name(var) == f"f{k}"
            assert banks.weights.weight(var) == (flip.theta, 1 - flip.theta)


class TestFlipNumbering:
    def test_reused_flip_node_is_two_draws(self):
        coin = Flip("x", Fraction(1, 2))
        program = Program.from_stmt(Seq(coin, Seq(Assign("y", VarRef("x")), coin)))
        assert program.flip_count == 2
        assert parse(unparse(program)) == program
        outcome = check_against_oracle(
            program, Query(mode="marginal", event=parse_expr("x && y"))
        )
        assert outcome.equal
        assert outcome.compiled_value == Fraction(1, 4)

    def test_flip_count_mismatch_rejected(self):
        store, banks = allocate_banks(parse("x ~ flip(1/2)"))
        with pytest.raises(ValueError):
            compile_stmt(parse("x ~ flip(1/2); x ~ flip(1/3)").body, banks, store)
        with pytest.raises(ValueError):
            compile_stmt(parse("x := true").body, banks, store)


class TestGamma:
    def test_single_variable(self):
        # x <=> x' in a plain diagram (no complement edges): the root
        # plus one node per x' polarity
        program = parse("x := x")
        store, banks = allocate_banks(program)
        frame = gamma(banks, store)
        assert store.node_count(frame) == 3
        universe = [banks.unprimed["x"], banks.primed["x"]]
        assert store.wmc(frame, WeightFn(), universe) == 2

    def test_excluding_everything_is_true(self):
        program = parse("x := x")
        store, banks = allocate_banks(program)
        assert gamma(banks, store, frozenset({"x"})).is_true

    def test_model_count_with_one_variable_freed(self):
        # gamma({x,y,z} minus {y}) over the six state variables: the two
        # constrained pairs contribute 2 models each, free y and y' give
        # 4, so 2 * 2 * 4 = 16 -- confirmed by brute-force enumeration
        program = parse("x := x; y := y; z := z")
        store, banks = allocate_banks(program)
        frame = gamma(banks, store, frozenset({"y"}))
        universe = sorted(banks.unprimed.values()) + sorted(banks.primed.values())
        count = store.wmc(frame, WeightFn(), universe)
        assert count == helpers.brute_force_wmc(frame, WeightFn(), universe)
        assert count == 16


class TestCompileExpr:
    def test_constants(self):
        store, banks = allocate_banks(parse("x := true"))
        assert compile_expr(parse_expr("true"), banks.unprimed, store).is_true
        assert compile_expr(parse_expr("false"), banks.unprimed, store).is_false

    def test_unknown_variable(self):
        store, banks = allocate_banks(parse("x := true"))
        with pytest.raises(UnknownVariable):
            compile_expr(parse_expr("q"), banks.unprimed, store)

    def test_output_bank_matches_renamed_input_bank(self):
        # compiling straight onto the primed bank gives the handle that
        # renaming the unprimed compilation gives
        rng = random.Random(59)
        program = parse("a ~ flip(1/2); b := a; c ~ flip(1/3); d := c && b; e := e")
        store, banks = allocate_banks(program)
        to_primed = {banks.unprimed[x]: banks.primed[x] for x in banks.unprimed}
        for _ in range(200):
            expr = helpers.random_expr(rng, list(program.vars), depth=4)
            renamed = store.rename(to_primed, compile_expr(expr, banks.unprimed, store))
            assert compile_expr(expr, banks.primed, store) == renamed

    def test_matches_interpreter_on_all_states(self):
        rng = random.Random(3)
        program = parse("a := a; b := b; c := c; d := d")
        store, banks = allocate_banks(program)
        for _ in range(50):
            expr = helpers.random_expr(rng, list(program.vars), depth=3)
            compiled = compile_expr(expr, banks.unprimed, store)
            for state in all_states(program.vars):
                env = {banks.unprimed[n]: state[n] for n in program.vars}
                assert helpers.follow(compiled, env) == eval_expr(expr, state)


class TestCompileStmtRules:
    def test_skip_relates_equal_states(self):
        program = Program.from_stmt(Skip())
        program = parse("skip; x := x")  # one variable in scope
        store, banks = allocate_banks(program)
        phi = compile_stmt(parse("skip").body, banks, store)
        weights, universe = banks.weights, banks.universe
        x, xp = banks.unprimed["x"], banks.primed["x"]
        conditioned = store.restrict(phi, [x], [True])
        both_true = store.wmc(conditioned & store.var(xp), weights, universe)
        mismatched = store.wmc(conditioned & ~store.var(xp), weights, universe)
        assert both_true == 1
        assert mismatched == 0

    def test_flip_probability_ratio(self):
        program = parse("x ~ flip(3/5)")
        store, banks = allocate_banks(program)
        phi, weights = compile_stmt(program.body, banks, store), banks.weights
        for value in (False, True):
            conditioned = store.restrict(phi, [banks.unprimed["x"]], [value])
            numerator = store.wmc(
                conditioned & store.var(banks.primed["x"]), weights, banks.universe
            )
            denominator = store.wmc(conditioned, weights, banks.universe)
            assert numerator / denominator == Fraction(3, 5)

    def test_flip_weights_recorded(self):
        program = parse("x ~ flip(3/5)")
        store, banks = allocate_banks(program)
        weights = banks.weights
        assert weights.weight(banks.flips[0]) == (Fraction(3, 5), Fraction(2, 5))
        assert weights.weight(banks.unprimed["x"]) == (1, 1)

    def test_flip_weights_equal_checked_weights(self):
        # allocate_banks takes Flip's checked thetas without checking them
        # again; its weights equal, and hash as, those WeightFn checks
        program = parse(gen_grid(4, "0.5", seed=11))
        store, banks = allocate_banks(program)
        checked = WeightFn(
            {f: (flip.theta, 1 - flip.theta) for f, flip in zip(banks.flips, program.flips)}
        )
        assert banks.weights == checked
        assert hash(banks.weights) == hash(checked)

    def test_chain_transition_to_z(self):
        program = parse(FIG_CHAIN)
        store, banks = allocate_banks(program)
        phi, weights = compile_stmt(program.body, banks, store), banks.weights
        inputs = [banks.unprimed[name] for name in program.vars]
        conditioned = store.restrict(phi, inputs, [False] * len(inputs))
        numerator = store.wmc(
            conditioned & store.var(banks.primed["z"]), weights, banks.universe
        )
        denominator = store.wmc(conditioned, weights, banks.universe)
        assert numerator / denominator == Fraction(3, 4)

    def test_foo_bar1_transition(self):
        program = parse(FOO_BAR1)
        store, banks = allocate_banks(program)
        phi, weights = compile_stmt(program.body, banks, store), banks.weights
        inputs = [banks.unprimed[name] for name in program.vars]
        conditioned = store.restrict(phi, inputs, [False] * len(inputs))
        target = state_cube(
            State.from_mapping(program.vars, {"x": False, "y": True}),
            banks.primed,
            store,
        )
        numerator = store.wmc(conditioned & target, weights, banks.universe)
        denominator = store.wmc(conditioned, weights, banks.universe)
        assert numerator / denominator == Fraction(1, 3)


class TestCompiledProgramInvariants:
    def test_support_within_universe(self):
        # phi reads the input bank besides the universe; its cofactor on
        # an input state lies within the universe
        rng = random.Random(51)
        for _ in range(30):
            program = helpers.random_program(rng, max_vars=5, max_flips=6, depth=3)
            compiled = compile_program(program)
            store, banks = compiled.store, compiled.banks
            inputs = [banks.unprimed[name] for name in program.vars]
            assert store.support(compiled.phi) <= banks.universe | set(inputs)
            values = [rng.random() < 0.5 for _ in inputs]
            assert store.support(store.restrict(compiled.phi, inputs, values)) <= banks.universe

    def test_functional_dependence_on_inputs(self):
        # for each assignment to unprimed and flip variables, at most one
        # primed completion satisfies phi
        rng = random.Random(53)
        for _ in range(25):
            program = helpers.random_program(rng, max_vars=4, max_flips=4, depth=3)
            compiled = compile_program(program)
            store, banks = compiled.store, compiled.banks
            inputs = sorted(banks.unprimed.values()) + sorted(banks.flips)
            outputs = sorted(banks.primed.values())
            for in_bits in itertools.product((False, True), repeat=len(inputs)):
                env = dict(zip(inputs, in_bits))
                completions = 0
                for out_bits in itertools.product((False, True), repeat=len(outputs)):
                    if helpers.follow(compiled.phi, {**env, **dict(zip(outputs, out_bits))}):
                        completions += 1
                assert completions <= 1

    def test_weights_cover_exactly_the_flips(self):
        program = parse(FIG_CHAIN)
        compiled = compile_program(program)
        weighted = {var for var, _ in compiled.banks.weights.items()}
        assert weighted == set(compiled.banks.flips)

    def test_stats_recorded(self):
        compiled = compile_program(parse(FIG_CHAIN))
        assert compiled.stats.node_count == 11
        assert compiled.stats.store_nodes >= compiled.stats.node_count
        assert compiled.stats.compile_ms >= 0


class TestFrameFreeCompilation:
    """``compile_stmt`` against the frame-carrying rules, in one store."""

    @staticmethod
    def assert_matches_reference(program):
        store, banks = allocate_banks(program)
        phi = compile_stmt(program.body, banks, store)
        ref_phi, ref_weights = helpers.reference_compile(program.body, banks, store)
        assert phi == ref_phi
        assert banks.weights == ref_weights

    def test_random_programs(self):
        rng = random.Random(57)
        kinds = set()
        for _ in range(300):
            program = helpers.random_program(rng, max_vars=6, max_flips=8, depth=4)
            for node in program.body.walk():
                kinds.add(type(node).__name__)
                if isinstance(node, If) and any(
                    isinstance(inner, If)
                    for branch in (node.then_branch, node.else_branch)
                    for inner in branch.walk()
                ):
                    kinds.add("nested If")
            self.assert_matches_reference(program)
        assert {"Observe", "nested If", "Flip", "Assign", "Skip"} <= kinds

    @staticmethod
    def long_random_sequences() -> list:
        # top-level sequences of 20 to 30 statements: the two-ended fold
        # extends both ends and joins them in the middle
        rng = random.Random(59)
        return [
            helpers.random_program(rng, max_vars=6, max_flips=12, depth=3, length=rng.randint(20, 30))
            for _ in range(60)
        ]

    def test_long_random_sequences(self):
        for program in self.long_random_sequences():
            assert len(seq_atoms(program.body)) >= 20
            self.assert_matches_reference(program)

    def test_narrow_shift_matches_the_shift_of_every_written_variable(self, monkeypatch):
        # a step shifts only the variables of mod1 that rel2 can mention;
        # each step is checked against the step that shifts all of mod1
        narrow = compiler._compose
        narrowed = []

        def checked(first, second, banks, store):
            rel1, mod1, _ = first
            rel2, mod2, reads2 = second
            both = mod1 & mod2
            shift = {banks.unprimed[x]: banks.primed[x] for x in mod1}
            shift.update({banks.primed[x]: banks.double_primed[x] for x in both})
            wide = store._and_exists(rel1, rel2, frozenset(banks.primed[x] for x in both), shift)
            if both:
                back = {banks.double_primed[x]: banks.primed[x] for x in both}
                wide = store._and_exists(1, wide, (), back)
            # read before ``_compose`` joins the sets in place
            narrowed.append(len(mod1 & (reads2 | mod2)) < len(mod1))
            part = narrow(first, second, banks, store)
            assert part[0] == wide
            return part

        monkeypatch.setattr(compiler, "_compose", checked)
        for program in self.long_random_sequences():
            self.assert_matches_reference(program)
        # the corpus has steps whose shift leaves variables of mod1 out
        assert any(narrowed)

    @pytest.mark.parametrize(
        "source",
        [gen_chain(40, 3), gen_ladder(30)]
        + [gen_grid(4, d, seed=11) for d in ("0", "0.5", "0.9")],
        ids=["chain40", "ladder30", "grid4-0", "grid4-0.5", "grid4-0.9"],
    )
    def test_benchmark_families(self, source):
        self.assert_matches_reference(parse(source))

    @pytest.mark.parametrize("n", [100, 400])
    def test_chain_store_grows_linearly(self, n):
        # the frame-carrying compiler allocated about 10 * n^2 nodes and
        # a balanced tree of steps about 3.1 to 3.4 * n * log2(n); the
        # two-ended fold allocates 11 * n
        stats = compile_program(parse(gen_chain(n, 7))).stats
        assert stats.store_nodes <= 12 * n

    @pytest.mark.parametrize("k", [100, 400])
    def test_ladder_store_grows_linearly(self, k):
        # a balanced tree of steps allocated about 2 * k * log2(k); the
        # two-ended fold allocates about 6 * k
        stats = compile_program(parse(gen_ladder(k))).stats
        assert stats.store_nodes <= 7 * k


class TestStructure:
    def test_chain_node_count_is_affine(self):
        from dippl.generators import gen_chain

        for n in (1, 2, 3, 10, 25):
            compiled = compile_program(parse(gen_chain(n, seed=7)))
            assert compiled.stats.node_count == 4 * n - 1

    def test_ladder_node_count_is_affine(self):
        from dippl.generators import gen_ladder

        for k in (1, 2, 4, 8, 16):
            compiled = compile_program(parse(gen_ladder(k)))
            assert compiled.stats.node_count == 3 * k

    def test_independent_flips_share_subfunction(self):
        # the sub-diagram below the second flip is reached from both
        # branches on the first variable: 6 nodes total, not 10
        compiled = compile_program(parse(LADDER2))
        assert compiled.stats.node_count == 6

    def test_conditional_no_blowup_when_fixed(self):
        # fixing the branch variable makes the conditional program's
        # diagram isomorphic to the two-independent-flips diagram
        independent = compile_program(parse(LADDER2))
        conditional = compile_program(parse(COND_INDEP))
        store, banks = conditional.store, conditional.banks
        branch_flip = banks.flips[0]
        z_out = banks.primed["z"]
        then_cofactor = store.exists(
            {branch_flip, z_out},
            conditional.phi & store.cube({branch_flip: True, z_out: True}),
        )
        assert helpers.shape(then_cofactor) == helpers.shape(independent.phi)


def test_state_cube_unknown_variable():
    program = parse("x := true")
    store, banks = allocate_banks(program)
    with pytest.raises(UnknownVariable):
        state_cube(State(("q",), (True,)), banks.unprimed, store)


def test_compile_stmt_unknown_written_variable():
    # a write outside the banks is reported like a read, not as a KeyError
    store, banks = allocate_banks(parse("x := true"))
    with pytest.raises(UnknownVariable):
        compile_stmt(parse("z := x").body, banks, store)
    store, banks = allocate_banks(parse("x ~ flip(1/2)"))
    with pytest.raises(UnknownVariable):
        compile_stmt(parse("z ~ flip(1/2)").body, banks, store)


class TestLeanCompilePath:
    """Atoms compile on handles; the public store calls left are the
    sequencing joins, and the banks' ids are checked once."""

    @pytest.mark.parametrize(
        "source",
        [gen_chain(1, 4), gen_chain(50, 4), gen_ladder(30), gen_grid(4, "0.5", seed=11)],
        ids=["chain1", "chain50", "ladder30", "grid4"],
    )
    def test_one_public_and_exists_per_join(self, source, monkeypatch):
        # an n-atom top-level sequence whose atoms hold no sequence is
        # n - 1 joins, each one public and_exists call
        program = parse(source)
        calls = []
        and_exists = NodeStore.and_exists

        def counted(store, *args, **kwargs):
            calls.append(args)
            return and_exists(store, *args, **kwargs)

        monkeypatch.setattr(NodeStore, "and_exists", counted)
        compile_program(program)
        assert len(calls) == len(seq_atoms(program.body)) - 1

    def test_banks_of_a_larger_program_raise_unknown_var(self):
        larger = parse(gen_chain(5, 1))
        _, banks = allocate_banks(larger)
        store, _ = allocate_banks(parse("x1 ~ flip(1/2)"))
        with pytest.raises(UnknownVar):
            compile_stmt(larger.body, banks, store)

    def test_allocate_banks_raises_the_recursion_limit(self):
        program = parse(gen_chain(400, 2))
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            store, _ = allocate_banks(program)
            assert store.num_vars == 5 * 400 - 1
            assert sys.getrecursionlimit() >= 3000 + 8 * store.num_vars
        finally:
            sys.setrecursionlimit(max(saved, sys.getrecursionlimit()))
