import itertools
import random
from fractions import Fraction

import pytest

import helpers
from dippl.bdd import (
    ManagerMismatch,
    NodeStore,
    OrderViolation,
    SupportOutsideUniverse,
    UnknownVar,
    WeightFn,
)


def fresh_store(n, **kw):
    return NodeStore([f"v{i}" for i in range(n)], **kw)


class TestConstruction:
    def test_constants(self):
        store = fresh_store(0)
        assert store.constant(True).is_true
        assert store.constant(False).is_false
        assert store.constant(True) != store.constant(False)

    def test_var_is_hash_consed(self):
        store = fresh_store(2)
        assert store.var(0) == store.var(0)
        assert store.var(0).idx == store.var(0).idx
        assert store.node_count(store.var(0)) == 1

    def test_var_structure(self):
        store = fresh_store(1)
        x = store.var(0)
        assert x.low.is_false and x.high.is_true
        negated = store.not_(x)
        assert negated.low.is_true and negated.high.is_false

    def test_unknown_var(self):
        store = fresh_store(1)
        with pytest.raises(UnknownVar):
            store.var(3)
        with pytest.raises(UnknownVar):
            store.var(-1)

    def test_manager_mismatch(self):
        a, b = fresh_store(1), fresh_store(1)
        with pytest.raises(ManagerMismatch):
            a.apply("and", a.var(0), b.var(0))

    def test_reduced_no_duplicate_children(self):
        store = fresh_store(2)
        x = store.var(0)
        same = store.apply("or", x, x)
        assert same == x


class TestApply:
    def test_identities(self):
        store = fresh_store(2)
        x = store.var(0)
        assert store.apply("and", x, store.true) == x
        assert store.apply("iff", x, x).is_true
        assert store.apply("xor", x, x).is_false
        assert store.apply("implies", x, x).is_true
        assert store.apply("or", x, store.false) == x

    def test_unknown_operator(self):
        store = fresh_store(1)
        with pytest.raises(ValueError):
            store.apply("nand", store.var(0), store.var(0))

    def test_against_truth_tables(self):
        rng = random.Random(5)
        store = fresh_store(4)
        variables = list(range(4))
        ops = {
            "and": lambda p, q: p and q,
            "or": lambda p, q: p or q,
            "xor": lambda p, q: p != q,
            "iff": lambda p, q: p == q,
            "implies": lambda p, q: (not p) or q,
        }
        for _ in range(200):
            a = helpers.random_bdd(rng, store, variables, size=8)
            b = helpers.random_bdd(rng, store, variables, size=8)
            name = rng.choice(list(ops))
            combined = store.apply(name, a, b)
            for bits in itertools.product((False, True), repeat=4):
                env = dict(zip(variables, bits))
                assert helpers.follow(combined, env) == ops[name](
                    helpers.follow(a, env), helpers.follow(b, env)
                )

    def test_not_involution(self):
        rng = random.Random(6)
        store = fresh_store(4)
        for _ in range(50):
            a = helpers.random_bdd(rng, store, range(4))
            assert store.not_(store.not_(a)) == a
        assert store.not_(store.true).is_false

    def test_ite_matches_expansion(self):
        rng = random.Random(8)
        store = fresh_store(4)
        for _ in range(80):
            c = helpers.random_bdd(rng, store, range(4), size=6)
            t = helpers.random_bdd(rng, store, range(4), size=6)
            e = helpers.random_bdd(rng, store, range(4), size=6)
            expansion = store.apply("or", store.apply("and", c, t),
                                    store.apply("and", store.not_(c), e))
            assert store.ite(c, t, e) == expansion


class TestExists:
    def test_single_var(self):
        store = fresh_store(2)
        assert store.exists({0}, store.var(0)).is_true

    def test_conjunction_drops_quantified(self):
        store = fresh_store(2)
        conj = store.apply("and", store.var(0), store.var(1))
        assert store.exists({0}, conj) == store.var(1)

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        store = fresh_store(5)
        variables = list(range(5))
        for _ in range(60):
            a = helpers.random_bdd(rng, store, variables)
            qvars = {v for v in variables if rng.random() < 0.4}
            result = store.exists(qvars, a)
            free = [v for v in variables if v not in qvars]
            for bits in itertools.product((False, True), repeat=len(free)):
                env = dict(zip(free, bits))
                expected = any(
                    helpers.follow(a, {**env, **dict(zip(qvars, qbits))})
                    for qbits in itertools.product((False, True), repeat=len(qvars))
                )
                assert helpers.follow(result, env) == expected

    def test_and_exists_equals_two_step(self):
        rng = random.Random(13)
        store = fresh_store(5)
        variables = list(range(5))
        for _ in range(80):
            a = helpers.random_bdd(rng, store, variables)
            b = helpers.random_bdd(rng, store, variables)
            qvars = {v for v in variables if rng.random() < 0.4}
            fused = store.and_exists(a, b, qvars)
            two_step = store.exists(qvars, store.apply("and", a, b))
            assert fused == two_step


class TestRename:
    def test_single_shift(self):
        store = fresh_store(2)
        assert store.rename({0: 1}, store.var(0)) == store.var(1)

    def test_identity_is_same_handle(self):
        rng = random.Random(15)
        store = fresh_store(4)
        for _ in range(20):
            a = helpers.random_bdd(rng, store, range(4))
            assert store.rename({}, a) == a
            assert store.rename({0: 0, 1: 1}, a) == a

    def test_bank_shift_against_substitution(self):
        rng = random.Random(19)
        store = fresh_store(10)
        sources = [0, 2, 4, 6, 8]
        mapping = {v: v + 1 for v in sources}
        for _ in range(60):
            a = helpers.random_bdd(rng, store, sources)
            renamed = store.rename(mapping, a)
            for bits in itertools.product((False, True), repeat=5):
                assert helpers.follow(renamed, dict(zip([v + 1 for v in sources], bits))) == helpers.follow(
                    a, dict(zip(sources, bits))
                )

    def test_order_violation(self):
        store = fresh_store(3)
        conj = store.apply("and", store.var(0), store.var(1))
        with pytest.raises(OrderViolation):
            store.rename({0: 2}, conj)  # 0 -> 2 crosses variable 1
        with pytest.raises(OrderViolation):
            store.rename({0: 1, 1: 0}, conj)  # swap

    def test_order_violation_on_deeper_support(self):
        # the order check looks only as deep as the largest variable or
        # image of the mapping; a support variable it jumps over below
        # the mapped ones must still be seen
        store = fresh_store(5)
        a = store.apply("and", store.apply("or", store.var(0), store.var(1)), store.var(3))
        with pytest.raises(OrderViolation):
            store.rename({0: 2}, a)  # 0 -> 2 crosses variable 1
        with pytest.raises(OrderViolation):
            store.rename({1: 4}, a)  # 1 -> 4 crosses variable 3
        assert store.support(store.rename({1: 2}, a)) == {0, 2, 3}


class TestIffCube:
    def test_matches_apply_route(self):
        store = fresh_store(6)
        built = store.iff_cube({0: 1, 4: 5}, {2: True, 3: False})
        manual = store.true
        for formula in (
            store.apply("iff", store.var(0), store.var(1)),
            store.cube({2: True, 3: False}),
            store.apply("iff", store.var(4), store.var(5)),
        ):
            manual = store.apply("and", manual, formula)
        assert built == manual

    def test_wide_pair_spanning_unconstrained_var(self):
        store = fresh_store(3)
        assert store.iff_cube({0: 2}) == store.apply("iff", store.var(0), store.var(2))

    def test_interleaving_rejected(self):
        store = fresh_store(4)
        with pytest.raises(ValueError):
            store.iff_cube({0: 2, 1: 3})
        with pytest.raises(ValueError):
            store.iff_cube({0: 2}, {1: True})


class TestWmc:
    def test_single_weighted_var(self):
        store = fresh_store(1)
        weights = WeightFn({0: (Fraction(3, 5), Fraction(2, 5))})
        assert store.wmc(store.var(0), weights, {0}) == Fraction(3, 5)

    def test_true_counts_all_models(self):
        store = fresh_store(2)
        assert store.wmc(store.true, WeightFn(), {0, 1}) == 4

    def test_independent_flips_multiply(self):
        store = fresh_store(2)
        weights = WeightFn(
            {0: (Fraction(3, 5), Fraction(2, 5)), 1: (Fraction(7, 10), Fraction(3, 10))}
        )
        conj = store.apply("and", store.var(0), store.var(1))
        assert store.wmc(conj, weights, {0, 1}) == Fraction(21, 50)

    def test_support_outside_universe(self):
        store = fresh_store(2)
        with pytest.raises(SupportOutsideUniverse):
            store.wmc(store.var(1), WeightFn(), {0})

    def test_support_outside_universe_below_a_zero_weight_level(self):
        # every edge that skips a level weighted (0, 0) counts 0, but the
        # diagram below it must still be checked
        store = fresh_store(4)
        below = store.var(2) & store.var(3)
        with pytest.raises(SupportOutsideUniverse, match=r"\[3\]"):
            store.wmc(store.var(0) & below, WeightFn({1: (0, 0)}), {0, 1, 2})
        with pytest.raises(SupportOutsideUniverse, match=r"\[3\]"):
            store.wmc(below, WeightFn({0: (0, 0)}), {0, 1, 2})

    def test_against_brute_force(self):
        rng = random.Random(21)
        store = fresh_store(6)
        variables = list(range(6))
        for _ in range(60):
            a = helpers.random_bdd(rng, store, variables)
            weights = WeightFn(
                {
                    v: (Fraction(rng.randint(0, 5), 5), Fraction(rng.randint(0, 5), 5))
                    for v in variables
                    if rng.random() < 0.7
                }
            )
            assert store.wmc(a, weights, variables) == helpers.brute_force_wmc(
                a, weights, variables
            )

    def test_shared_table(self):
        # one table across many diagrams of one store, weights and universe
        rng = random.Random(29)
        store = fresh_store(6)
        variables = list(range(6))
        weights = WeightFn({v: (Fraction(v, 7), Fraction(7 - v, 5)) for v in variables})
        table: dict = {}
        for _ in range(60):
            a = helpers.random_bdd(rng, store, variables)
            expected = helpers.brute_force_wmc(a, weights, variables)
            before = dict(table)
            assert store.wmc(a, weights, variables, table=table) == expected
            assert table == before  # a read-only pass adds nothing
            assert store.wmc(a, weights, variables, table=table, extend_table=True) == expected
            assert set(table) - set(before) <= {0, 1} | self.reachable(a)
            assert self.reachable(a) <= set(table)

    def test_integer_pass_matches_fraction_reference(self):
        # random weight sets over 8 variables: zero weights and (0, 0)
        # levels, mixed denominators, integer weights above 1, and
        # diagrams on part of the universe; each weight set and universe
        # shares one table, read before it is extended
        rng = random.Random(47)
        store = fresh_store(8)
        pool = [0, 1, 3, Fraction(1, 3), Fraction(2, 7), Fraction(9, 10), Fraction(5, 2)]
        seen = {"zero level": 0, "absent": 0, "zero count": 0}
        for _ in range(30):
            universe = sorted(rng.sample(range(8), rng.randint(4, 8)))
            weights = WeightFn(
                {
                    v: (0, 0) if rng.random() < 0.1 else (rng.choice(pool), rng.choice(pool))
                    for v in universe
                    if rng.random() < 0.8
                }
            )
            seen["zero level"] += any(w == (0, 0) for _, w in weights.items())
            table: dict = {}
            for _ in range(8):
                support = rng.sample(universe, rng.randint(1, len(universe)))
                a = helpers.random_bdd(rng, store, support)
                expected = helpers.reference_wmc(a, weights, universe)
                assert expected == helpers.brute_force_wmc(a, weights, universe)
                read = store.wmc(a, weights, universe, table=table)
                extended = store.wmc(a, weights, universe, table=table, extend_table=True)
                assert read == extended == expected
                assert type(read) is Fraction and type(extended) is Fraction
                seen["absent"] += len(store.support(a)) < len(universe)
                seen["zero count"] += expected == 0
            assert all(type(v) is int for v in table.values())
        assert all(seen.values()), seen

    @staticmethod
    def reachable(a):
        nodes, stack = set(), [a]
        while stack:
            node = stack.pop()
            if not node.is_terminal and node.idx not in nodes:
                nodes.add(node.idx)
                stack.extend([node.low, node.high])
        return nodes

    def test_fresh_flip_variable_is_neutral(self):
        store = fresh_store(3)
        a = store.apply("or", store.var(0), store.var(1))
        weights = WeightFn({2: (Fraction(3, 10), Fraction(7, 10))})
        assert store.wmc(a, weights, {0, 1}) == store.wmc(a, weights, {0, 1, 2})

    def test_fresh_unweighted_variable_doubles(self):
        store = fresh_store(3)
        a = store.apply("or", store.var(0), store.var(1))
        base = store.wmc(a, WeightFn(), {0, 1})
        assert store.wmc(a, WeightFn(), {0, 1, 2}) == 2 * base

    def test_zero_weights_allowed(self):
        store = fresh_store(1)
        weights = WeightFn({0: (Fraction(0), Fraction(1))})
        assert store.wmc(store.var(0), weights, {0}) == 0
        assert store.wmc(store.not_(store.var(0)), weights, {0}) == 1

    def test_wmc_lemma_smoke(self):
        # independent conjunction factorizes; exhaustive versions run in
        # the acceptance suite
        store = fresh_store(4)
        weights = WeightFn({v: (Fraction(1, 2), Fraction(1, 2)) for v in range(4)})
        a = store.apply("or", store.var(0), store.var(1))
        b = store.apply("iff", store.var(2), store.var(3))
        prod = store.wmc(store.apply("and", a, b), weights, range(4))
        assert prod == store.wmc(a, weights, {0, 1}) * store.wmc(b, weights, {2, 3})


class TestWeightFn:
    def test_default_is_one_one(self):
        assert WeightFn().weight(7) == (1, 1)

    def test_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            WeightFn({0: (Fraction(-1), Fraction(1))})
        with pytest.raises(TypeError):
            WeightFn({0: (0.5, 0.5)})

    def test_merge_agreement(self):
        w1 = WeightFn({0: (Fraction(1, 2), Fraction(1, 2))})
        w2 = WeightFn({1: (Fraction(1, 4), Fraction(3, 4))})
        merged = w1.merged(w2)
        assert merged.weight(0) == (Fraction(1, 2), Fraction(1, 2))
        assert merged.weight(1) == (Fraction(1, 4), Fraction(3, 4))
        conflicting = WeightFn({0: (Fraction(1, 4), Fraction(3, 4))})
        with pytest.raises(ValueError):
            w1.merged(conflicting)


class TestQueries:
    def test_node_count(self):
        store = fresh_store(2)
        assert store.node_count(store.true) == 0
        assert store.node_count(store.var(0)) == 1
        conj = store.apply("and", store.var(0), store.var(1))
        assert store.node_count(conj) == 2

    def test_support(self):
        store = fresh_store(3)
        conj = store.apply("and", store.var(0), store.var(2))
        assert store.support(conj) == {0, 2}
        assert store.support(store.true) == frozenset()

    def test_cube(self):
        store = fresh_store(3)
        cube = store.cube({0: True, 2: False})
        assert helpers.follow(cube, {0: True, 1: False, 2: False})
        assert not helpers.follow(cube, {0: True, 1: False, 2: True})
        assert store.node_count(cube) == 2

    def test_evaluate(self):
        store = fresh_store(2)
        conj = store.apply("and", store.var(0), store.not_(store.var(1)))
        assert store.evaluate(conj, {0: True, 1: False})
        assert not store.evaluate(conj, {0: True, 1: True})


class TestDotExport:
    def test_terminal_only(self):
        store = fresh_store(1)
        text = store.to_dot(store.true)
        helpers.check_dot(text)
        assert text.count("shape=box") == 1

    def test_single_var(self):
        store = fresh_store(1)
        text = store.to_dot(store.var(0))
        helpers.check_dot(text)
        assert text.count("->") == 2
        assert "style=dashed" in text and "style=solid" in text

    def test_random_diagrams_are_valid(self):
        rng = random.Random(31)
        store = fresh_store(5)
        for _ in range(40):
            a = helpers.random_bdd(rng, store, range(5))
            helpers.check_dot(store.to_dot(a))

    def test_custom_names(self):
        store = fresh_store(1)
        text = store.to_dot(store.var(0), names={0: "alpha"})
        assert "alpha" in text


class TestCanonicity:
    def test_equal_denotation_iff_equal_handle(self):
        rng = random.Random(37)
        store = fresh_store(6)
        variables = list(range(6))
        for _ in range(150):
            a = helpers.random_bdd(rng, store, variables)
            b = helpers.random_bdd(rng, store, variables)
            same_function = helpers.truth_table(a, variables) == helpers.truth_table(
                b, variables
            )
            assert same_function == (a == b)

    def test_cache_disabled_builds_identical_structure(self):
        rng_a, rng_b = random.Random(43), random.Random(43)
        cached = fresh_store(5, op_cache=True)
        uncached = fresh_store(5, op_cache=False)
        a = helpers.random_bdd(rng_a, cached, range(5), size=40)
        b = helpers.random_bdd(rng_b, uncached, range(5), size=40)
        assert helpers.shape(a) == helpers.shape(b)
        assert helpers.truth_table(a, list(range(5))) == helpers.truth_table(
            b, list(range(5))
        )

    def test_clear_op_cache_keeps_results(self):
        store = fresh_store(3)
        before = store.apply("and", store.var(0), store.var(1))
        store.clear_op_cache()
        after = store.apply("and", store.var(0), store.var(1))
        assert before == after
