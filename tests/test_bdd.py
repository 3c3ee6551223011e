import itertools
import random
from fractions import Fraction

import pytest

import helpers
from dippl.bdd import (
    Bdd,
    ManagerMismatch,
    NodeStore,
    OrderViolation,
    SupportOutsideUniverse,
    UnknownVar,
    WeightFn,
)


def fresh_store(n, **kw):
    return NodeStore([f"v{i}" for i in range(n)], **kw)


def _substitute(store, mapping, a):
    """``a`` with each variable ``v`` replaced by ``mapping.get(v, v)``,
    rebuilt node by node with ``ite``, which orders its result whatever
    the mapping."""
    memo = {}

    def rec(node):
        if node.is_terminal:
            return node
        if node.idx not in memo:
            image = store.var(mapping.get(node.var, node.var))
            memo[node.idx] = store.ite(image, rec(node.high), rec(node.low))
        return memo[node.idx]

    return rec(a)


def _random_tree(rng, store, variables):
    """A random decision diagram testing ``variables`` in order, each
    branch skipping its own, so paths that never meet may test
    different variables."""
    if not variables or rng.random() < 0.15:
        return store.constant(rng.random() < 0.5)
    i = rng.randrange(len(variables))
    rest = variables[i + 1:]
    return store.ite(store.var(variables[i]), _random_tree(rng, store, rest), _random_tree(rng, store, rest))


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
            "iff": lambda p, q: p == q,
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


class TestAndExistsShift:
    """``and_exists(a, b, vars, shift=m)`` reads ``b`` through ``m``
    instead of building the substituted copy of ``b``."""

    def test_order_preserving_shifts_equal_rename(self):
        # random diagrams and random shifts strictly order-preserving on
        # b's support, some onto a's variables: the handle equals the
        # two-call form over the substitution built with ite, and an
        # uncached store builds the same diagram
        rng = random.Random(61)
        store, plain = fresh_store(8), fresh_store(8, op_cache=False)
        variables = list(range(8))
        moved = 0
        for _ in range(300):
            # the same draws build a and b in both stores
            seed = rng.random()
            a, b, pa, pb = (
                helpers.random_bdd(random.Random(seed + k), target, variables, size=10)
                for target in (store, plain)
                for k in (0, 1)
            )
            support = sorted(store.support(b))
            shift = dict(zip(support, sorted(rng.sample(variables, len(support)))))
            qvars = {v for v in variables if rng.random() < 0.4}
            fused = store.and_exists(a, b, qvars, shift=shift)
            assert fused == store.and_exists(a, _substitute(store, shift, b), qvars)
            uncached = plain.and_exists(pa, pb, qvars, shift=shift)
            assert (store.support(fused), helpers.shape(fused)) == (
                plain.support(uncached),
                helpers.shape(uncached),
            )
            moved += any(var != image for var, image in shift.items())
        assert moved >= 200

    def test_bank_shift_as_in_sequencing(self):
        # the compiler's sequencing shift on triples (u, p, d) = (unprimed,
        # primed, double-primed): a variable only the first side writes
        # moves b's u to p, and one both sides write also moves b's p to
        # d and quantifies p
        rng = random.Random(67)
        store = fresh_store(9)
        for _ in range(100):
            shift, qvars, b_vars = {}, [], []
            for u in (0, 3, 6):
                mode = rng.choice(("neither", "first", "both"))
                b_vars += [u] if mode == "first" else [u, u + 1]
                if mode != "neither":
                    shift[u] = u + 1
                if mode == "both":
                    shift[u + 1] = u + 2
                    qvars.append(u + 1)
            a = helpers.random_bdd(rng, store, [0, 1, 3, 4, 6, 7])
            b = helpers.random_bdd(rng, store, b_vars)
            fused = store.and_exists(a, b, qvars, shift=shift)
            assert fused == store.and_exists(a, _substitute(store, shift, b), qvars)

    def test_order_violation(self):
        store = fresh_store(3)
        conj = store.apply("and", store.var(0), store.var(1))
        for vars in ([], [1], [2]):
            with pytest.raises(OrderViolation):
                store.and_exists(store.true, conj, vars, shift={0: 2})  # crosses 1
            with pytest.raises(OrderViolation):
                store.and_exists(store.true, conj, vars, shift={0: 1, 1: 0})  # swap
        # the walk stops where a is false, so it never reads the crossing
        assert store.and_exists(store.false, conj, [], shift={0: 2}).is_false

    def test_crossing_shifts_raise_where_rename_raises(self):
        # against a true a the walk reads every shifted node of b, so it
        # raises exactly where rename does; against any a, whenever it
        # returns, it returns the substitution built node by node with ite
        rng = random.Random(71)
        store = fresh_store(7)
        variables = list(range(7))
        counts = {"raised": 0, "returned": 0}
        for _ in range(400):
            b = _random_tree(rng, store, variables)
            support = sorted(store.support(b))
            if rng.random() < 0.5:
                shift = dict(zip(support, rng.sample(variables, len(support))))
            else:
                keys = rng.sample(variables, rng.randint(1, 4))
                shift = {var: rng.randrange(7) for var in keys}
            qvars = {v for v in variables if rng.random() < 0.3}
            injective = len(set(shift.values())) == len(shift)
            try:
                expected = store.and_exists(store.true, store.rename(shift, b), qvars)
            except OrderViolation:
                expected = None
            try:
                got = store.and_exists(store.true, b, qvars, shift=shift)
            except OrderViolation:
                got = None
            if injective:
                assert got == expected
            counts["raised" if got is None else "returned"] += 1
            a = helpers.random_bdd(rng, store, variables, size=6)
            try:
                got = store.and_exists(a, b, qvars, shift=shift)
            except OrderViolation:
                continue
            assert got == store.and_exists(a, _substitute(store, shift, b), qvars)
        assert min(counts.values()) >= 50, counts


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

    def test_swap_on_disjoint_paths(self):
        # 1 and 2 cross, but no path tests both: the substitution is
        # ordered, and rename builds it
        store = fresh_store(3)
        v0, v1, v2 = (store.var(i) for i in range(3))
        assert store.rename({1: 2, 2: 1}, store.ite(v0, v1, v2)) == store.ite(v0, v2, v1)

    def test_against_ite_substitution(self):
        # random diagrams and random mappings, some neither monotone nor
        # injective: whenever rename returns, it returns the substitution
        # built node by node with ite; a mapping strictly order-preserving
        # on the support never raises
        rng = random.Random(23)
        store = fresh_store(7)
        counts = {"monotone": 0, "crossing": 0, "raised": 0}
        for _ in range(400):
            if rng.random() < 0.5:
                a = _random_tree(rng, store, list(range(7)))
            else:
                # odd variables on one side of the root, even on the other
                a = store.ite(
                    store.var(0),
                    _random_tree(rng, store, [1, 3, 5]),
                    _random_tree(rng, store, [2, 4, 6]),
                )
            support = sorted(store.support(a))
            kind = rng.random()
            if kind < 0.25:
                mapping = dict(zip(support, sorted(rng.sample(range(7), len(support)))))
            elif kind < 0.6:
                x = rng.randrange(6)
                mapping = {x: x + 1, x + 1: x}
            else:
                keys = rng.sample(range(7), rng.randint(1, 4))
                mapping = {var: rng.randrange(7) for var in keys}
            images = [mapping.get(var, var) for var in support]
            monotone = all(x < y for x, y in zip(images, images[1:]))
            try:
                renamed = store.rename(mapping, a)
            except OrderViolation:
                assert not monotone, (mapping, support)
                counts["raised"] += 1
                continue
            assert renamed == _substitute(store, mapping, a)
            counts["monotone" if monotone else "crossing"] += 1
        assert min(counts.values()) >= 10, counts

    def test_raises_where_the_shifted_and_exists_raises(self):
        # rename is the shifted and_exists walk against True: it raises
        # exactly where that walk does, and so checks each node's image
        # against the images of its children's variables, not against the
        # children it builds.  A merge of two variables can then raise
        # where the substitution is ordered: here u renames to v5, below
        # v1's image 3, but u's own variable 2 sits above 3.
        store = fresh_store(6)
        v = [store.var(i) for i in range(6)]
        a = store.ite(v[1], store.ite(v[2], v[5], v[4]), store.false)
        merge = {1: 3, 4: 5}
        assert store.support(_substitute(store, merge, a)) == {3, 5}
        with pytest.raises(OrderViolation):
            store.rename(merge, a)
        with pytest.raises(OrderViolation):
            store.and_exists(store.true, a, (), shift=merge)
        rng = random.Random(79)
        variables = list(range(6))
        counts = {"raised": 0, "returned": 0}
        for _ in range(400):
            b = _random_tree(rng, store, variables)
            keys = rng.sample(variables, rng.randint(1, 4))
            mapping = {var: rng.randrange(6) for var in keys}
            results = []
            for walk in (
                lambda: store.rename(mapping, b),
                lambda: store.and_exists(store.true, b, (), shift=mapping),
            ):
                try:
                    results.append(walk())
                except OrderViolation:
                    results.append(None)
            assert results[0] == results[1]
            counts["raised" if results[0] is None else "returned"] += 1
        assert min(counts.values()) >= 50, counts


class TestRestrict:
    """``restrict(a, vars, values)`` is the cofactor of ``a``: equal to
    ``exists(vars, a & cube)`` and to ``a`` read with ``vars`` fixed."""

    @staticmethod
    def check(store, a, vars, values, variables):
        result = store.restrict(a, vars, values)
        assignment = dict(zip(vars, values))
        assert result == store.exists(vars, a & store.cube(assignment))
        assert store.support(result).isdisjoint(vars)
        free = [v for v in variables if v not in assignment]
        for bits in itertools.product((False, True), repeat=len(free)):
            env = dict(zip(free, bits))
            assert helpers.follow(result, env) == helpers.follow(a, {**env, **assignment})
        return result

    def test_random_diagrams(self):
        rng = random.Random(29)
        seen = {"outside support": 0, "terminal result": 0, "empty": 0}
        for _ in range(80):
            cached, plain = fresh_store(7), fresh_store(7, op_cache=False)
            variables = list(range(7))
            support = rng.sample(variables, rng.randint(1, 7))
            vars = rng.sample(variables, rng.randint(0, 7))
            values = [rng.random() < 0.5 for _ in vars]
            seed = rng.random()
            results = []
            for store in (cached, plain):
                a = helpers.random_bdd(random.Random(seed), store, support)
                results.append(self.check(store, a, vars, values, variables))
            # both stores build the same diagram
            cached_result, plain_result = results
            assert cached.support(cached_result) == plain.support(plain_result)
            assert helpers.shape(cached_result) == helpers.shape(plain_result)
            seen["outside support"] += not set(vars) <= set(support)
            seen["terminal result"] += results[0].is_terminal
            seen["empty"] += not vars
        assert all(seen.values()), seen

    def test_terminal_roots(self):
        store = fresh_store(3)
        for value in (True, False):
            root = store.constant(value)
            assert self.check(store, root, [0, 2], [True, False], [0, 1, 2]) == root

    def test_repeat_is_one_lookup(self, monkeypatch):
        walks = []
        walk = NodeStore._and_exists

        def counted(store, x, y, qvars, shift):
            walks.append(x)
            return walk(store, x, y, qvars, shift)

        monkeypatch.setattr(NodeStore, "_and_exists", counted)
        for op_cache in (True, False):
            walks.clear()
            store = fresh_store(4, op_cache=op_cache)
            a = (store.var(0) & store.var(2)) | helpers.xor(store.var(1), store.var(3))
            first = store.restrict(a, [2, 0], [True, False])
            before = len(store)
            # equal sequences, not the same objects
            assert store.restrict(a, (2, 0), (True, False)) == first
            assert len(store) == before
            assert len(walks) == (1 if op_cache else 2)
            # clearing the cache frees the cofactor; the handle stays valid
            store.clear_op_cache()
            assert store.restrict(a, [2, 0], [True, False]) == first
            assert len(walks) == (2 if op_cache else 3)

    def test_none_value_fixes_false(self):
        # a value is read for its truth, as ``cube`` reads it
        for op_cache in (True, False):
            store = fresh_store(3, op_cache=op_cache)
            a = (store.var(0) & store.var(1)) | store.var(2)
            cofactor = store.restrict(a, [0], [None])
            assert cofactor == store.restrict(a, [0], [False]) == store.var(2)
            assert cofactor == self.check(store, a, [0], [False], [0, 1, 2])
            assert store.restrict(a, [0, 2], [None, 0]) == store.false

    def test_bad_assignments(self):
        store = fresh_store(3)
        a = store.var(0) | store.var(1)
        with pytest.raises(ValueError):
            store.restrict(a, [0, 0], [True, False])
        with pytest.raises(ValueError):
            store.restrict(a, [0, 1], [True])
        with pytest.raises(UnknownVar):
            store.restrict(a, [5], [True])


class TestIffCube:
    def test_matches_apply_route(self):
        store = fresh_store(6)
        built = store.iff_cube({0: 1, 3: 2, 4: 5})
        manual = store.true
        for a, b in ((0, 1), (2, 3), (4, 5)):
            manual = store.apply("and", manual, store.apply("iff", store.var(a), store.var(b)))
        assert built == manual

    def test_wide_pair_spanning_unconstrained_var(self):
        store = fresh_store(3)
        assert store.iff_cube({0: 2}) == store.apply("iff", store.var(0), store.var(2))

    def test_self_pair_is_true(self):
        # a <=> a holds everywhere and must not build a node on ``a``
        store = fresh_store(3)
        assert store.iff_cube({0: 0}).is_true
        assert store.iff_cube({0: 0, 1: 2}) == store.iff_cube({1: 2})

    def test_interleaving_rejected(self):
        store = fresh_store(4)
        with pytest.raises(ValueError):
            store.iff_cube({0: 2, 1: 3})
        with pytest.raises(ValueError):
            store.iff_cube({0: 3, 1: 2})


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
        # one store-owned table across many diagrams of one store, weights
        # and universe: a pass over a diagram adds exactly its nodes, and
        # a count with an event that is not a literal adds none
        rng = random.Random(29)
        store = fresh_store(6)
        variables = list(range(6))
        weights = WeightFn({v: (Fraction(v, 7), Fraction(7 - v, 5)) for v in variables})
        table = store._count_layout(weights, variables).table
        events = 0
        for _ in range(60):
            a = helpers.random_bdd(rng, store, variables)
            event = helpers.random_bdd(rng, store, variables)
            if event.is_terminal or not (event.low.is_terminal and event.high.is_terminal):
                events += 1
                before = dict(table)
                expected = helpers.brute_force_wmc(a & event, weights, variables)
                assert store.wmc(a, weights, variables, event=event) == expected
                assert table == before
            before = dict(table)
            assert store.wmc(a, weights, variables) == helpers.brute_force_wmc(
                a, weights, variables
            )
            assert set(table) - set(before) == self.reachable(a) - set(before)
            assert self.reachable(a) <= set(table)
        assert events > 40

    def test_integer_pass_matches_fraction_reference(self):
        # random weight sets over 8 variables: zero weights and (0, 0)
        # levels, mixed denominators, integer weights above 1, and
        # diagrams on part of the universe; each weight set and universe
        # has its own table in the one store, extended by the first count
        # of a diagram and read by the second
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
            for _ in range(8):
                support = rng.sample(universe, rng.randint(1, len(universe)))
                a = helpers.random_bdd(rng, store, support)
                expected = helpers.reference_wmc(a, weights, universe)
                assert expected == helpers.brute_force_wmc(a, weights, universe)
                counted = store.wmc(a, weights, universe)
                read = store.wmc(a, weights, universe)
                assert counted == read == expected
                assert type(counted) is Fraction and type(read) is Fraction
                seen["absent"] += len(store.support(a)) < len(universe)
                seen["zero count"] += expected == 0
            table = store._count_layout(weights, universe).table
            assert all(type(v) is int for v in table.values())
        assert all(seen.values()), seen

    def test_interleaved_weights_and_universes_share_one_store(self):
        # counts under two weight functions and two universes, interleaved
        # on one store and extending every table, stay exact
        rng = random.Random(53)
        store = fresh_store(7)
        keys = [
            (WeightFn({v: (Fraction(1, v + 2), Fraction(v, 3)) for v in range(7)}), range(7)),
            (WeightFn({v: (Fraction(2, 5), 3) for v in range(0, 7, 2)}), range(7)),
            (WeightFn({v: (Fraction(1, v + 2), Fraction(v, 3)) for v in range(7)}), range(1, 6)),
            (WeightFn({v: (Fraction(2, 5), 3) for v in range(0, 7, 2)}), range(1, 6)),
        ]
        for _ in range(40):
            weights, universe = rng.choice(keys)
            a = helpers.random_bdd(rng, store, list(universe))
            expected = helpers.brute_force_wmc(a, weights, list(universe))
            assert store.wmc(a, weights, universe) == expected
            for weights, universe in keys:
                if store.support(a) <= set(universe):
                    assert store.wmc(a, weights, universe) == helpers.brute_force_wmc(
                        a, weights, list(universe)
                    )
        layouts = {id(store._count_layout(w, u)) for w, u in keys}
        assert len(layouts) == 4

    def test_equal_keys_reuse_one_layout(self):
        store = fresh_store(4)
        entries = {0: (Fraction(1, 3), Fraction(2, 3)), 2: (1, Fraction(1, 2))}
        a = store.var(0) | store.var(2)
        first = store.wmc(a, WeightFn(entries), frozenset({0, 1, 2, 3}))
        layout = store._count_layout(WeightFn(entries), {0, 1, 2, 3})
        # an equal but distinct WeightFn, and the universe as a list
        assert store.wmc(a, WeightFn(dict(entries)), [3, 2, 1, 0]) == first
        assert store._count_layout(WeightFn(entries), [0, 1, 2, 3]) is layout
        assert hash(WeightFn(entries)) == hash(WeightFn(dict(reversed(entries.items()))))
        layouts = [v for v in store._cache.values() if not isinstance(v, int)]
        assert layouts == [layout]
        # clearing the op cache frees the layout and its table
        store.clear_op_cache()
        assert store.wmc(a, WeightFn(entries), [0, 1, 2, 3]) == first
        assert store._count_layout(WeightFn(entries), [0, 1, 2, 3]) is not layout

    def test_uncached_store_keeps_no_table(self):
        rng = random.Random(59)
        cached, plain = fresh_store(5), fresh_store(5, op_cache=False)
        weights = WeightFn({v: (Fraction(v + 1, 9), Fraction(1, v + 1)) for v in range(5)})
        for _ in range(30):
            seed = rng.random()
            counts = []
            for store in (cached, plain):
                # the same function on both stores
                a = helpers.random_bdd(random.Random(seed), store, list(range(5)))
                counts.append(store.wmc(a, weights, range(5)))
                assert counts[-1] == helpers.brute_force_wmc(a, weights, list(range(5)))
            assert counts[0] == counts[1]
        assert len(plain._cache) == 0
        assert plain._count_layout(weights, range(5)) is not plain._count_layout(weights, range(5))

    def test_uncached_store_recounts_every_call(self, monkeypatch):
        passes = []
        count = NodeStore._count

        def counted(store, root, layout, memo):
            passes.append(root)
            return count(store, root, layout, memo)

        monkeypatch.setattr(NodeStore, "_count", counted)
        weights = WeightFn({0: (Fraction(1, 3), Fraction(2, 3))})
        for store, calls in ((fresh_store(3), 1), (fresh_store(3, op_cache=False), 3)):
            a = store.var(0) | store.var(2)
            counts = [store.wmc(a, weights, range(3)) for _ in range(3)]
            assert counts == [Fraction(8, 3)] * 3
            assert len(passes) == calls
            del passes[:]

    @pytest.mark.parametrize("bad", [4, 9, -1, "v1", 2.5, None])
    def test_universe_outside_store(self, bad):
        store = fresh_store(4)
        a = store.var(0)
        with pytest.raises(UnknownVar, match=repr(bad)):
            store.wmc(a, WeightFn(), {0, 1, bad})
        with pytest.raises(UnknownVar):
            store.wmc(a, WeightFn(), [bad])
        # nothing is kept for the rejected universe
        assert store.wmc(a, WeightFn(), {0, 1}) == 2
        assert len(store._cache) == 1

    def test_count_loop_with_part_of_root_in_table(self):
        # the counting loop against the Fraction reference, on roots part
        # of whose nodes an earlier count put in the table; universes with
        # gaps give edges that skip 0, 1 and 2 or more positions
        rng = random.Random(61)
        store = fresh_store(9)
        pool = [0, 1, 2, Fraction(1, 3), Fraction(3, 7), Fraction(5, 2)]
        seen = {"partly counted": 0, "zero level": 0, "terminal": 0}
        spans = set()
        for _ in range(25):
            universe = sorted(rng.sample(range(9), rng.randint(3, 9)))
            position = {var: k for k, var in enumerate(universe)}
            weights = WeightFn(
                {
                    v: (0, 0) if rng.random() < 0.05 else (rng.choice(pool), rng.choice(pool))
                    for v in universe
                    if rng.random() < 0.7
                }
            )
            table = store._count_layout(weights, universe).table
            for _ in range(6):
                support = rng.sample(universe, rng.randint(1, len(universe)))
                root = helpers.random_bdd(rng, store, support, size=rng.randint(4, 16))
                nodes = self.reachable(root)
                # count a few sub-diagrams first
                for u in rng.sample(sorted(nodes), len(nodes) // 3):
                    sub = Bdd(store, u)
                    assert store.wmc(sub, weights, universe) == helpers.reference_wmc(
                        sub, weights, universe
                    )
                seen["partly counted"] += bool(nodes & set(table)) and not nodes <= set(table)
                seen["zero level"] += any(w == (0, 0) for _, w in weights.items())
                seen["terminal"] += root.is_terminal
                for u in nodes:
                    k = position[store._var[u]]
                    for child in (store._lo[u], store._hi[u]):
                        if child:
                            end = len(universe) if child == 1 else position[store._var[child]]
                            spans.add(min(end - k - 1, 2))
                expected = helpers.reference_wmc(root, weights, universe)
                assert store.wmc(root, weights, universe) == expected
                assert expected == helpers.brute_force_wmc(root, weights, universe)
            for root in (store.true, store.false):
                assert store.wmc(root, weights, universe) == helpers.reference_wmc(
                    root, weights, universe
                )
            assert all(type(v) is int for v in table.values())
        assert all(seen.values()), seen
        assert spans == {0, 1, 2}

    def test_support_outside_universe_keeps_table_ints(self):
        # the loop counts children first, so the nodes below the variable
        # outside the universe are counted before the error; whatever the
        # table keeps is a correct int count
        store = fresh_store(4)
        universe = [0, 2, 3]
        weights = WeightFn({v: (Fraction(1, v + 2), Fraction(2, 3)) for v in range(4)})
        below = store.var(2) | store.var(3)
        a = store.var(0) & helpers.xor(store.var(1), below)
        table = store._count_layout(weights, universe).table
        with pytest.raises(SupportOutsideUniverse, match=r"\[1\]"):
            store.wmc(a, weights, universe, event=store.var(0) | store.var(3))
        assert table == {0: 0, 1: 1}
        with pytest.raises(SupportOutsideUniverse, match=r"\[1\]"):
            store.wmc(a, weights, universe)
        assert all(type(v) is int for v in table.values())
        assert a.idx not in table and a.high.idx not in table
        for u in set(table) - {0, 1}:
            node = Bdd(store, u)
            assert store.wmc(node, weights, universe) == helpers.reference_wmc(
                node, weights, universe
            )

    def test_nodes_lists_each_node_once_and_stops_at_known(self):
        rng = random.Random(67)
        store = fresh_store(7)
        for _ in range(40):
            root = helpers.random_bdd(rng, store, list(range(7)), size=rng.randint(2, 20))
            nodes = store._nodes(root.idx)
            assert len(nodes) == len(set(nodes))
            assert set(nodes) == self.reachable(root)
            assert nodes[:1] == ([] if root.is_terminal else [root.idx])
            known = set(rng.sample(nodes, len(nodes) // 2))
            stopped = store._nodes(root.idx, known)
            assert len(stopped) == len(set(stopped))
            assert set(stopped) == self.reachable(root, known)
            assert store._nodes(root.idx, {0, 1, root.idx}) == []

    def test_last_layout_kept_by_identity(self):
        store, plain = fresh_store(4), fresh_store(4, op_cache=False)
        weights = WeightFn({1: (Fraction(1, 3), Fraction(2, 3))})
        universe = frozenset(range(4))
        layout = store._count_layout(weights, universe)
        assert store._count_layout(weights, universe) is layout
        assert store._last_layout == (weights, universe, layout)
        # a mutable universe is never matched by identity
        changing = [0, 1, 2, 3]
        assert store._count_layout(weights, changing) is layout
        changing.pop()
        assert store._count_layout(weights, changing).size == 3
        store.clear_op_cache()
        assert store._last_layout == (None, None, None)
        assert store._count_layout(weights, universe) is not layout
        plain._count_layout(weights, universe)
        assert plain._last_layout == (None, None, None)

    @staticmethod
    def reachable(a, known=()):
        """Handles of ``a``'s internal nodes, not passing through ``known``."""
        nodes, stack = set(), [a]
        while stack:
            node = stack.pop()
            if not node.is_terminal and node.idx not in nodes and node.idx not in known:
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


class TestLiteralCounts:
    """``wmc(a, w, U, event=lit)`` for a single literal ``lit`` is read
    from ``a``'s literal counts and equals ``wmc(a & lit, w, U)`` on an
    uncached store and by brute force."""

    POOL = [0, 1, 3, Fraction(1, 3), Fraction(2, 7), Fraction(9, 10), Fraction(5, 2)]

    @staticmethod
    def literal(store, var, positive):
        return store.var(var) if positive else store.not_(store.var(var))

    def check(self, store, plain, a, b, weights, universe, order=None):
        """Both literals of each universe variable, asked in ``order``
        (the universe's by default): ``a`` on ``store`` and the same
        function ``b`` on the uncached ``plain``.  A count builds no node
        and leaves ``a``'s literal counts behind, in the slot of every
        weight class the universe holds."""
        for var in universe if order is None else order:
            for positive in (True, False):
                plain_lit = self.literal(plain, var, positive)
                expected = plain.wmc(b & plain_lit, weights, universe)
                assert plain.wmc(b, weights, universe, event=plain_lit) == expected
                lit = self.literal(store, var, positive)
                before = len(store)
                got = store.wmc(a, weights, universe, event=lit)
                assert type(got) is Fraction
                assert len(store) == before
                assert got == expected == helpers.brute_force_wmc(a & lit, weights, universe)
        layout = store._count_layout(weights, universe)
        slots = layout.literals[a.idx]
        assert all(slots[unit] is not None for unit in layout.unit)

    @staticmethod
    def skips(store, a, var):
        """Some edge of ``a`` that carries mass passes over ``var``'s level."""
        if a.is_terminal or a.var > var:
            return not a.is_false
        nodes = [Bdd(store, u) for u in store._nodes(a.idx)]
        return any(
            not child.is_false and node.var < var and (child.is_terminal or child.var > var)
            for node in nodes
            for child in (node.low, node.high)
        )

    def test_random_diagrams_every_literal(self):
        rng = random.Random(83)
        seen = {"outside support": 0, "skipped level": 0, "zero count": 0}
        for _ in range(40):
            store, plain = fresh_store(7), fresh_store(7, op_cache=False)
            universe = sorted(rng.sample(range(7), rng.randint(3, 7)))
            weights = WeightFn(
                {v: (rng.choice(self.POOL), rng.choice(self.POOL[1:])) for v in universe}
            )
            support = rng.sample(universe, rng.randint(1, len(universe)))
            seed = rng.random()
            a = helpers.random_bdd(random.Random(seed), store, support)
            b = helpers.random_bdd(random.Random(seed), plain, support)
            store.wmc(a, weights, universe)
            self.check(store, plain, a, b, weights, universe)
            for var in universe:
                seen["outside support"] += var not in store.support(a)
                seen["skipped level"] += var in store.support(a) and self.skips(store, a, var)
            seen["zero count"] += store.wmc(a, weights, universe) == 0
        assert all(seen.values()), seen

    def test_edges_skipping_the_literal_level(self):
        # v0 -> v3 and v0 -> T skip v1 and v2, which a does not test
        store, plain = fresh_store(5), fresh_store(5, op_cache=False)
        weights = WeightFn({v: (Fraction(v + 1, 7), Fraction(2, v + 3)) for v in range(5)})
        a = store.var(0) | store.var(3)
        b = plain.var(0) | plain.var(3)
        store.wmc(a, weights, range(5))
        self.check(store, plain, a, b, weights, range(5))
        assert self.skips(store, a, 1) and self.skips(store, a, 2)

    def test_terminal_roots(self):
        store, plain = fresh_store(4), fresh_store(4, op_cache=False)
        weights = WeightFn({0: (Fraction(1, 3), Fraction(1, 2)), 2: (3, 0)})
        for value in (True, False):
            a, b = store.constant(value), plain.constant(value)
            self.check(store, plain, a, b, weights, range(4))

    def test_zero_factor_level_counts_zero(self):
        # every model weighs 0, so every count is 0 and no pass runs:
        # the table keeps only the terminals
        store, plain = fresh_store(4), fresh_store(4, op_cache=False)
        weights = WeightFn({1: (0, 0), 2: (Fraction(1, 4), Fraction(3, 4))})
        for build in (lambda s: s.var(0) & s.var(2), lambda s: s.var(1) | s.var(3)):
            a, b = build(store), build(plain)
            assert store.wmc(a, weights, range(4)) == 0
            event = helpers.xor(store.var(0), store.var(3))
            assert store.wmc(a, weights, range(4), event=event) == 0
            for var in range(4):
                for positive in (True, False):
                    lit = self.literal(store, var, positive)
                    assert store.wmc(a, weights, range(4), event=lit) == 0
            self.check(store, plain, a, b, weights, range(4))
        assert store._count_layout(weights, range(4)).table == {0: 0, 1: 1}

    def test_uncounted_root_is_counted_then_read(self):
        # the first literal event counts the root into the table, and
        # every count is read from its literal counts
        store, plain = fresh_store(5), fresh_store(5, op_cache=False)
        weights = WeightFn({v: (Fraction(1, v + 2), 1) for v in range(5)})
        a, b = (helpers.xor(s.var(0), s.var(2)) | (s.var(1) & s.var(4)) for s in (store, plain))
        table = store._count_layout(weights, range(5)).table
        assert table == {0: 0, 1: 1}
        self.check(store, plain, a, b, weights, range(5))
        assert set(table) == {0, 1} | TestWmc.reachable(a)

    def test_unit_and_weighted_classes_on_one_root(self):
        # unit variables, listed (1, 1) and unlisted, beside weighted
        # ones, theta = 1/2 among them: its pair scales to (1, 1), but it
        # is weighted; each root is asked both classes, in both orders
        half = (Fraction(1, 2), Fraction(1, 2))
        rng = random.Random(29)
        for trial in range(30):
            shuffled = rng.sample(range(8), 8)
            listed, weighted, unlisted = shuffled[:2], shuffled[2:5], shuffled[5:]
            weights = WeightFn(
                {v: (1, 1) for v in listed}
                | {weighted[0]: half}
                | {v: (rng.choice(self.POOL[3:]), rng.choice(self.POOL[1:])) for v in weighted[1:]}
            )
            # every variable but at most one unlisted one
            dropped = rng.choice(unlisted + [None])
            universe = [v for v in range(8) if v != dropped]
            support = rng.sample(universe, rng.randint(2, len(universe)))
            seed = rng.random()
            store, plain = fresh_store(8), fresh_store(8, op_cache=False)
            a = helpers.random_bdd(random.Random(seed), store, support)
            b = helpers.random_bdd(random.Random(seed), plain, support)
            layout = store._count_layout(weights, universe)
            unit = {var: layout.unit[layout.position[var]] for var in universe}
            assert unit[weighted[0]] is False and layout.wt[layout.position[weighted[0]]] == 1
            assert all(unit[var] for var in universe if var not in weighted)
            assert not any(unit[var] for var in weighted)
            first = weighted if trial % 2 else [v for v in universe if unit[v]]
            order = first + [v for v in universe if v not in first]
            self.check(store, plain, a, b, weights, universe, order)

    def test_literal_outside_the_universe(self):
        store = fresh_store(3)
        a = store.var(0) | store.var(1)
        store.wmc(a, WeightFn(), {0, 1})
        with pytest.raises(SupportOutsideUniverse, match=r"\[2\]"):
            store.wmc(a, WeightFn(), {0, 1}, event=store.var(2))


class TestWeightFn:
    def test_default_is_one_one(self):
        assert WeightFn().weight(7) == (1, 1)

    def test_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            WeightFn({0: (Fraction(-1), Fraction(1))})
        with pytest.raises(ValueError):
            WeightFn({0: (1, -2)})
        with pytest.raises(TypeError):
            WeightFn({0: (0.5, 0.5)})
        with pytest.raises(TypeError):
            WeightFn({0: (Fraction(1, 2), 0.5)})


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

    @pytest.mark.parametrize("bad", [3, 9, -1, "v1", 2.5, None])
    def test_cube_unknown_var(self, bad):
        store = fresh_store(3)
        nodes = len(store)
        with pytest.raises(UnknownVar, match=repr(bad)):
            store.cube({0: True, 2: False, bad: True})
        # the ids are checked before any node is built
        assert len(store) == nodes
        assert store.cube({}).is_true


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
        assert 'label="v0"' in text

    def test_random_diagrams_are_valid(self):
        rng = random.Random(31)
        store = fresh_store(5)
        for _ in range(40):
            a = helpers.random_bdd(rng, store, range(5))
            helpers.check_dot(store.to_dot(a))



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
