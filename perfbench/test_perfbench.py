"""Checks of the benchmark's own references, generator and tracer.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dippl import NodeStore, compile_program, gen_chain, gen_grid, oracle, parse, parse_expr
from dippl.oracle import INFEASIBLE, State

import measure
import tracer as tracing
import workloads


def _oracle_marginals(source: str) -> dict:
    program = parse(source)
    init = State.all_false(program.vars)
    return {name: oracle.output_marginal(program, init, parse_expr(name)) for name in program.vars}


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 3), (6, 11), (9, 5)])
def test_forward_reference_matches_oracle_on_chains(n, seed):
    source = gen_chain(n, seed)
    assert workloads.forward_marginals(parse(source)) == _oracle_marginals(source)


@pytest.mark.parametrize("d", ["0", "0.5", "0.9"])
@pytest.mark.parametrize("seed", [0, 7])
def test_forward_reference_matches_oracle_on_grids(d, seed):
    source = gen_grid(3, d, seed=seed)
    assert workloads.forward_marginals(parse(source)) == _oracle_marginals(source)


def test_forward_reference_refuses_observe():
    with pytest.raises(ValueError):
        workloads.forward_marginals(parse("x ~ flip(0.5); y := x; observe(y)"))


def test_small_programs_are_seeded_and_sized():
    assert workloads.SmallGen(random.Random(4)).program(5) == workloads.SmallGen(random.Random(4)).program(5)
    gen = workloads.SmallGen(random.Random(9))
    for n in workloads.VAR_COUNTS:
        for _ in range(20):
            source = gen.program(n)
            assert len(parse(source).vars) == n
            assert source.count("flip") <= workloads.MAX_FLIPS


def test_small_workload_answers_check_exactly(monkeypatch):
    monkeypatch.setattr(workloads, "SMALL_PROGRAMS", 40)
    workload = workloads.build_small(2)
    assert workload == workloads.build_small(2)
    for item in workload.items:
        assert measure.run_item(item).failed == 0


def test_wrong_answers_are_counted():
    feasible = "x ~ flip(1/4)"
    infeasible = "x ~ flip(1/4); observe(x && !x)"
    for source, expected, failed in [
        (feasible, Fraction(1, 4), 0),
        (feasible, Fraction(3, 4), 1),
        (feasible, INFEASIBLE, 1),
        (infeasible, INFEASIBLE, 0),
        (infeasible, Fraction(0), 1),
    ]:
        case = workloads.Case(source, (workloads.Query("marginal", expected, event="x"),))
        assert measure.run_item(workloads.Item((case,))).failed == failed


def test_items_of_several_programs_interleave_and_check_each():
    cases = (
        workloads.marginal_case(gen_chain(3, 1), ["x3", "x1"]),
        workloads.Case("x ~ flip(1/4)", (workloads.Query("marginal", Fraction(1, 2), event="x"),)),
    )
    outcome = measure.run_item(workloads.Item(cases))
    assert outcome.failed == 1
    assert len(outcome.compile_s) == 2 and len(outcome.query_s) == 3


def test_traced_pass_counts_steps_and_restores_the_library():
    original = NodeStore.apply
    tracer = tracing.Tracer()
    source = gen_chain(5, 1)
    item = workloads.Item((workloads.marginal_case(source, ["x5"]),))
    with tracer.patched():
        outcome = measure.run_item(item)
    assert NodeStore.apply is original
    assert outcome.failed == 0
    spans = tracer.take()
    metrics = tracing.pass_metrics(spans, outcome.phi_nodes, outcome.store_nodes)
    assert metrics["compiler.seq_steps"] == 4
    assert metrics["infer.wmc_passes"] == metrics["bdd.wmc.calls"] == 2
    assert metrics["bdd.store_nodes"] == compile_program(parse(source)).stats.store_nodes
    assert metrics["compiler.peak_intermediate_nodes"] > 0
    assert metrics["compiler.step_alloc.max"] >= metrics["compiler.step_alloc.p50"] > 0
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own.values())
