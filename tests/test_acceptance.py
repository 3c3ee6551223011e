"""Acceptance suite: one test per release criterion.

Every test prints one ``ACCEPTANCE <criterion>: PASS|FAIL`` line (run
pytest with ``-s`` to see them as they happen).  Tolerances are fixed
here, not tuned elsewhere: probability comparisons are exact rational
equality, structural fits demand relative residuals below 1%, and the
timing criteria use wall-clock measurements on the current machine.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import helpers
from dippl.bdd import NodeStore, WeightFn
from dippl.compiler import compile_program
from dippl.generators import gen_chain, gen_grid, gen_ladder
from dippl.infer import accept_prob, event_prob, transition_prob
from dippl.lang import parse, parse_expr
from dippl.oracle import (
    INFEASIBLE,
    State,
    accepting,
    all_states,
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

BAR2 = """
y ~ flip(1/2);
observe(x || y);
if y { y ~ flip(1/2) } else { y := false }
"""


def _report(criterion, passed, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion} failed: {detail}"


def _best_time(action, repetitions=5):
    best = float("inf")
    for _ in range(repetitions):
        begin = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - begin)
    return best


def _relative_residual(xs, ys):
    design = np.vstack([np.asarray(xs, dtype=float), np.ones(len(xs))]).T
    targets = np.asarray(ys, dtype=float)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return float(np.linalg.norm(targets - design @ coef) / np.linalg.norm(targets))


def test_criterion_1_differential_against_interpreter():
    """500 random programs: compiled queries equal the interpreter exactly."""
    rng = random.Random(20240817)
    begin = time.perf_counter()
    comparisons = 0
    infeasible_hits = 0
    failures = []
    for index in range(500):
        program = helpers.random_program(
            rng, max_vars=8, max_flips=10, depth=5, observe_p=0.2
        )
        compiled = compile_program(program)
        for _ in range(2):
            init = State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
            if accept_prob(compiled, init) != accepting(program, init):
                failures.append((index, "accepting", init))
            comparisons += 1
            dist = transition(program, init)
            targets = [
                State(program.vars, tuple(rng.random() < 0.5 for _ in program.vars))
                for _ in range(2)
            ]
            if not dist.is_bottom:
                targets.extend(itertools.islice(dist.mass, 2))
            for target in targets:
                outcome = transition_prob(compiled, init, target).value
                if dist.is_bottom:
                    infeasible_hits += 1
                    if outcome is not INFEASIBLE:
                        failures.append((index, "transition-bottom", init))
                elif outcome != dist.prob(target):
                    failures.append((index, "transition", init, target))
                comparisons += 1
            event = helpers.random_expr(rng, list(program.vars))
            expected = output_marginal(program, init, event)
            actual = event_prob(compiled, init, event).value
            if expected is INFEASIBLE:
                infeasible_hits += 1
                if actual is not INFEASIBLE:
                    failures.append((index, "marginal-bottom", init))
            elif actual != expected:
                failures.append((index, "marginal", init))
            comparisons += 1
    elapsed = time.perf_counter() - begin
    _report(
        "criterion-1 differential-correctness",
        not failures and elapsed < 300,
        f"(500 programs, {comparisons} exact comparisons, "
        f"{infeasible_hits} infeasible agreements, {elapsed:.1f}s; "
        f"failures: {failures[:3]})",
    )


def test_criterion_2_reference_value_regressions():
    """Hand-checked probabilities from the worked examples, exactly."""
    failures = []

    def expect(tag, actual, wanted):
        if actual != wanted:
            failures.append((tag, actual, wanted))

    foo_bar1 = parse(FOO_BAR1)
    target = State.from_mapping(foo_bar1.vars, {"x": False, "y": True})
    compiled = compile_program(foo_bar1)
    for init in all_states(foo_bar1.vars):
        expect("foo-bar1-oracle", transition(foo_bar1, init).prob(target), Fraction(1, 3))
        expect(
            "foo-bar1-compiled",
            transition_prob(compiled, init, target).value,
            Fraction(1, 3),
        )

    bar1, bar2 = parse(BAR1), parse(BAR2)

    def table(program):
        rows = {}
        for init in all_states(sorted(program.vars)):
            ordered = State(program.vars, tuple(init[v] for v in program.vars))
            dist = transition(program, ordered)
            key = tuple(sorted(init.as_dict().items()))
            rows[key] = (
                "bottom"
                if dist.is_bottom
                else {
                    tuple(sorted(s.as_dict().items())): m for s, m in dist.mass.items()
                }
            )
        return rows

    expect("bar-tables-agree", table(bar1), table(bar2))
    x_true = (("x", True), ("y", False))
    expect(
        "bar1-case-quarter",
        table(bar1)[x_true][(("x", True), ("y", True))],
        Fraction(1, 4),
    )
    expect(
        "bar1-case-three-quarters",
        table(bar1)[x_true][(("x", True), ("y", False))],
        Fraction(3, 4),
    )
    x_false = (("x", False), ("y", False))
    expect(
        "bar1-case-half",
        table(bar1)[x_false][(("x", False), ("y", True))],
        Fraction(1, 2),
    )

    foo_bar2 = parse(FOO_BAR2)
    init = State.all_false(foo_bar2.vars)
    expect("foo-bar2-oracle", output_marginal(foo_bar2, init, parse_expr("x")), Fraction(1, 2))
    expect(
        "foo-bar2-compiled",
        event_prob(compile_program(foo_bar2), init, parse_expr("x")).value,
        Fraction(1, 2),
    )

    chain = parse(FIG_CHAIN)
    init = State.all_false(chain.vars)
    chain_compiled = compile_program(chain)
    expect("chain-z-oracle", output_marginal(chain, init, parse_expr("z")), Fraction(3, 4))
    expect(
        "chain-z-compiled",
        event_prob(chain_compiled, init, parse_expr("z")).value,
        Fraction(3, 4),
    )
    expect(
        "chain-not-z-compiled",
        event_prob(chain_compiled, init, parse_expr("!z")).value,
        Fraction(1, 4),
    )
    _report(
        "criterion-2 reference-values",
        not failures,
        f"(exact equality on all worked-example probabilities; failures: {failures})",
    )


def _random_weights(rng, variables):
    return WeightFn(
        {
            v: (Fraction(rng.randint(0, 6), 6), Fraction(rng.randint(0, 6), 6))
            for v in variables
            if rng.random() < 0.8
        }
    )


def test_criterion_3_model_count_lemmas():
    """Factorization / additivity / quantification lemmas, 1000 cases each."""
    rng = random.Random(7031)
    failures = []

    for index in range(1000):  # independent conjunction factorizes
        n = rng.randint(2, 8)
        split = rng.randint(1, n - 1)
        store = NodeStore([f"v{i}" for i in range(n)])
        left_vars, right_vars = list(range(split)), list(range(split, n))
        a = helpers.random_bdd(rng, store, left_vars, size=6)
        b = helpers.random_bdd(rng, store, right_vars, size=6)
        weights = _random_weights(rng, range(n))
        product = store.wmc(store.apply("and", a, b), weights, range(n))
        factored = store.wmc(a, weights, left_vars) * store.wmc(b, weights, right_vars)
        if product != factored:
            failures.append(("conjunction", index))
        if product != helpers.brute_force_wmc(store.apply("and", a, b), weights, range(n)):
            failures.append(("conjunction-brute", index))

    for index in range(1000):  # mutually exclusive disjunction adds
        n = rng.randint(2, 8)
        store = NodeStore([f"v{i}" for i in range(n)])
        variables = list(range(n))
        a = helpers.random_bdd(rng, store, variables, size=6)
        c = helpers.random_bdd(rng, store, variables, size=6)
        b = store.apply("and", store.not_(a), c)
        weights = _random_weights(rng, variables)
        union = store.wmc(store.apply("or", a, b), weights, variables)
        added = store.wmc(a, weights, variables) + store.wmc(b, weights, variables)
        if union != added:
            failures.append(("disjunction", index))
        if union != helpers.brute_force_wmc(store.apply("or", a, b), weights, variables):
            failures.append(("disjunction-brute", index))

    for index in range(1000):  # functionally dependent quantification
        n_dependent = rng.randint(1, 3)
        n_free = rng.randint(1, 5)
        store = NodeStore([f"v{i}" for i in range(n_dependent + n_free)])
        dependent = list(range(n_dependent))
        free = list(range(n_dependent, n_dependent + n_free))
        base = helpers.random_bdd(rng, store, free, size=6)
        a = base
        for x in dependent:
            definition = helpers.random_bdd(rng, store, free, size=4)
            a = store.apply("and", a, store.apply("iff", store.var(x), definition))
        weights = _random_weights(rng, free)  # dependent variables stay (1, 1)
        quantified = store.exists(dependent, a)
        lhs = store.wmc(quantified, weights, free)
        rhs = store.wmc(a, weights, range(n_dependent + n_free))
        if lhs != rhs:
            failures.append(("quantification", index))
        if rhs != helpers.brute_force_wmc(a, weights, range(n_dependent + n_free)):
            failures.append(("quantification-brute", index))

    for index in range(1000):  # smoothing neutrality of the universe
        n = rng.randint(1, 7)
        store = NodeStore([f"v{i}" for i in range(n + 1)])
        used = list(range(n))
        a = helpers.random_bdd(rng, store, used, size=6)
        weights = _random_weights(rng, used)
        base = store.wmc(a, weights, used)
        theta = Fraction(rng.randint(0, 10), 10)
        flip_weights = WeightFn(
            dict(weights.items()) | {n: (theta, 1 - theta)}
        )
        if store.wmc(a, flip_weights, range(n + 1)) != base:
            failures.append(("smoothing-flip", index))
        if store.wmc(a, weights, range(n + 1)) != 2 * base:
            failures.append(("smoothing-unweighted", index))
        if base != helpers.brute_force_wmc(a, weights, used):
            failures.append(("smoothing-brute", index))

    _report(
        "criterion-3 model-count-lemmas",
        not failures,
        f"(4 properties x 1000 instances, brute-force cross-checked; "
        f"failures: {failures[:3]})",
    )


def test_criterion_4_chain_scaling():
    """Chain diagrams grow affinely; length 150 compiles and queries < 5 s."""
    sizes = list(range(10, 151, 10))
    node_counts = []
    for n in sizes:
        compiled = compile_program(parse(gen_chain(n, seed=7)))
        node_counts.append(compiled.stats.node_count)
    residual = _relative_residual(sizes, node_counts)

    program = parse(gen_chain(150, seed=7))
    begin = time.perf_counter()
    compiled = compile_program(program)
    value = event_prob(compiled, None, parse_expr("x150")).value
    elapsed = time.perf_counter() - begin
    _report(
        "criterion-4 chain-scaling",
        residual < 0.01 and elapsed < 5.0,
        f"(affine fit residual {residual:.2e}; n=150 compile+query "
        f"{elapsed:.2f}s, Pr={float(value):.4f})",
    )


def test_criterion_5_path_explosion_contrast():
    """The enumerative interpreter pays for 4096 paths; compilation does not."""
    program = parse(gen_chain(12, seed=7))
    init = State.all_false(program.vars)
    query = parse_expr("x12")

    begin = time.perf_counter()
    compiled = compile_program(program)
    compiled_value = event_prob(compiled, init, query).value
    compiled_time = time.perf_counter() - begin

    begin = time.perf_counter()
    oracle_value = output_marginal(program, init, query)
    oracle_time = time.perf_counter() - begin

    ratio = oracle_time / compiled_time
    _report(
        "criterion-5 path-explosion-contrast",
        oracle_value == compiled_value and ratio >= 10,
        f"(oracle {oracle_time:.2f}s vs compile+query {compiled_time:.3f}s, "
        f"{ratio:.0f}x; values agree: {oracle_value == compiled_value})",
    )


def test_criterion_6_grid_determinism_trend():
    """More determinism, faster grid compilation; k=6 at 90% stays modest."""
    seed = 11
    # 5-grids: 4-grid compiles take about a millisecond, short enough for
    # machine noise to swing their ratio across the 2x bar
    programs = {d: parse(gen_grid(5, d, seed=seed)) for d in (0, 0.5, 0.9)}
    # interleave the levels round-robin so machine-load spikes cannot
    # systematically penalize one level; keep each level's best round
    times = {d: float("inf") for d in programs}
    for _ in range(9):
        for d, program in programs.items():
            begin = time.perf_counter()
            compile_program(program)
            times[d] = min(times[d], time.perf_counter() - begin)
    strictly_decreasing = times[0] > times[0.5] > times[0.9]
    at_least_twice = times[0] >= 2 * times[0.9]

    big = parse(gen_grid(6, 0.9, seed=seed))
    begin = time.perf_counter()
    compiled = compile_program(big)
    event_prob(compiled, None, parse_expr("g5_5"))
    big_elapsed = time.perf_counter() - begin

    _report(
        "criterion-6 grid-determinism-trend",
        strictly_decreasing and at_least_twice and big_elapsed < 60.0,
        f"(k=5 times ms: 0%={times[0]*1e3:.1f} > 50%={times[0.5]*1e3:.1f} "
        f"> 90%={times[0.9]*1e3:.1f}, ratio {times[0]/times[0.9]:.1f}x; "
        f"k=6@90% {big_elapsed:.2f}s)",
    )


def test_criterion_7_independence_ladder():
    """Diagrams for k independent flips grow affinely in k."""
    sizes = [2, 4, 8, 16, 32]
    node_counts = [
        compile_program(parse(gen_ladder(k))).stats.node_count for k in sizes
    ]
    residual = _relative_residual(sizes, node_counts)
    _report(
        "criterion-7 independence-ladder",
        residual < 0.01,
        f"(node counts {node_counts}, affine fit residual {residual:.2e})",
    )


def test_criterion_8_canonicity_and_cache_soundness():
    """Op sequences agree with caching off; equal functions share handles."""
    rng = random.Random(5150)
    failures = []
    for index in range(1000):
        n = rng.randint(2, 6)
        seed = rng.getrandbits(32)
        cached_store = NodeStore([f"v{i}" for i in range(n)], op_cache=True)
        plain_store = NodeStore([f"v{i}" for i in range(n)], op_cache=False)
        cached = helpers.random_bdd(
            random.Random(seed), cached_store, range(n), size=14
        )
        plain = helpers.random_bdd(
            random.Random(seed), plain_store, range(n), size=14
        )
        variables = list(range(n))
        if helpers.truth_table(cached, variables) != helpers.truth_table(plain, variables):
            failures.append(("cache-divergence", index))
        if helpers.shape(cached) != helpers.shape(plain):
            failures.append(("shape-divergence", index))

    store = NodeStore([f"v{i}" for i in range(6)])
    variables = list(range(6))
    for index in range(400):
        a = helpers.random_bdd(rng, store, variables, size=10)
        b = helpers.random_bdd(rng, store, variables, size=10)
        same_function = helpers.truth_table(a, variables) == helpers.truth_table(
            b, variables
        )
        if same_function != (a == b):
            failures.append(("canonicity", index))

    _report(
        "criterion-8 canonicity-and-cache",
        not failures,
        f"(1000 cached/uncached sequences, 400 canonicity pairs; "
        f"failures: {failures[:3]})",
    )
