import random
from fractions import Fraction

import pytest

from dippl.compiler import compile_program
from dippl.generators import (
    BenchSpec,
    SplitMix64,
    gen_chain,
    gen_grid,
    gen_ladder,
    grid_flip_count,
)
from dippl.infer import Query, check_against_oracle, event_prob
from dippl.lang import (
    And,
    Assign,
    Flip,
    If,
    Not,
    Observe,
    Or,
    Seq,
    VarRef,
    parse,
    parse_expr,
)
from dippl.oracle import INFEASIBLE, State, all_states

# seed whose five drawn tenths are 5, 6, 4, 6, 9: the parameters of the
# motivating three-variable chain
CHAIN3_REFERENCE_SEED = 92688

REFERENCE_CHAIN3 = """
x ~ flip(1/2);
if x { y ~ flip(3/5) } else { y ~ flip(2/5) };
if y { z ~ flip(3/5) } else { z ~ flip(9/10) }
"""

REFERENCE_LADDER2 = "x ~ flip(3/5); y ~ flip(7/10)"


def rename_vars(stmt, mapping):
    def ex(e):
        if isinstance(e, VarRef):
            return VarRef(mapping[e.name])
        if isinstance(e, Not):
            return Not(ex(e.inner))
        if isinstance(e, And):
            return And(ex(e.lhs), ex(e.rhs))
        if isinstance(e, Or):
            return Or(ex(e.lhs), ex(e.rhs))
        return e

    def st(s):
        if isinstance(s, Seq):
            return Seq(st(s.first), st(s.second))
        if isinstance(s, If):
            return If(ex(s.cond), st(s.then_branch), st(s.else_branch))
        if isinstance(s, Assign):
            return Assign(mapping[s.target], ex(s.rhs))
        if isinstance(s, Flip):
            return Flip(mapping[s.target], s.theta)
        if isinstance(s, Observe):
            return Observe(ex(s.cond))
        return s

    return st(stmt)


class TestSplitMix64:
    def test_reference_sequence(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_theta_range(self):
        rng = SplitMix64(99)
        draws = {rng.theta() for _ in range(500)}
        assert draws == {Fraction(n, 10) for n in range(1, 10)}

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestChain:
    def test_single_element(self):
        program = parse(gen_chain(1, seed=3))
        assert program.flip_count == 1
        assert program.vars == ("x1",)

    def test_deterministic(self):
        assert gen_chain(20, seed=42) == gen_chain(20, seed=42)
        assert gen_chain(20, seed=42) != gen_chain(20, seed=43)

    def test_structure(self):
        program = parse(gen_chain(5, seed=42))
        assert program.vars == tuple(f"x{i}" for i in range(1, 6))
        assert program.flip_count == 9  # 1 + 2 per later variable

    def test_reference_seed_reproduces_motivating_chain(self):
        generated = parse(gen_chain(3, CHAIN3_REFERENCE_SEED))
        reference = parse(REFERENCE_CHAIN3)
        renamed = rename_vars(generated.body, {"x1": "x", "x2": "y", "x3": "z"})
        assert renamed == reference.body

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_chain(0, seed=1)


class TestLadder:
    def test_single_flip(self):
        program = parse(gen_ladder(1))
        assert program.body == Flip("x1", Fraction(3, 5))
        assert compile_program(program).stats.node_count == 3

    def test_two_rungs_match_reference(self):
        generated = parse(gen_ladder(2))
        reference = parse(REFERENCE_LADDER2)
        renamed = rename_vars(generated.body, {"x1": "x", "x2": "y"})
        assert renamed == reference.body

    def test_deterministic(self):
        assert gen_ladder(8) == gen_ladder(8)

    def test_distinct_variables(self):
        program = parse(gen_ladder(12))
        assert len(program.vars) == 12
        assert program.flip_count == 12


class TestGrid:
    def test_flip_counts(self):
        assert [grid_flip_count(k) for k in (1, 2, 3, 4)] == [1, 9, 25, 49]
        for k in (2, 3, 4):
            assert parse(gen_grid(k, 0, seed=5)).flip_count == grid_flip_count(k)

    def test_deterministic(self):
        assert gen_grid(3, 0.5, seed=9) == gen_grid(3, 0.5, seed=9)

    def test_replacement_count(self):
        for det, expected_flips in ((0, 25), (0.5, 13), (0.9, 3), (1.0, 0)):
            program = parse(gen_grid(3, det, seed=9))
            assert program.flip_count == expected_flips

    def test_replacement_grows_monotonically(self):
        # the same shuffled site order serves every determinism level,
        # so replacements at 0.5 are a subset of those at 0.9
        def replaced_sites(det):
            source = gen_grid(3, det, seed=9)
            return {
                i for i, line in enumerate(source.split(";\n")) if ":=" in line
            }

        low, high = replaced_sites(0.5), replaced_sites(0.9)
        assert low <= high

    def test_fully_deterministic_grid(self):
        program = parse(gen_grid(3, 1.0, seed=9))
        compiled = compile_program(program)
        from dippl.infer import accept_prob

        assert accept_prob(compiled, None) == 1
        for name in program.vars:
            value = event_prob(compiled, None, parse_expr(name)).value
            assert value in (0, 1)

    def test_matches_oracle_on_small_grid(self):
        program = parse(gen_grid(2, 0.5, seed=17))
        outcome = check_against_oracle(
            program, Query(mode="marginal", event=parse_expr(BenchSpec("grid", 2).query_var()))
        )
        assert outcome.equal

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_grid(3, 1.5, seed=1)
        with pytest.raises(ValueError):
            gen_grid(0, 0, seed=1)


class TestDispatch:
    def test_generate(self):
        assert BenchSpec("chain", 4, seed=3).source() == gen_chain(4, 3)
        assert BenchSpec("ladder", 4, seed=3).source() == gen_ladder(4)
        assert BenchSpec("grid", 2, 0.5, seed=3).source() == gen_grid(2, 0.5, seed=3)
        with pytest.raises(ValueError):
            BenchSpec("tree", 4, seed=3)

    def test_query_var(self):
        assert BenchSpec("chain", 7).query_var() == "x7"
        assert BenchSpec("ladder", 3).query_var() == "x3"
        assert BenchSpec("grid", 4).query_var() == "g3_3"
