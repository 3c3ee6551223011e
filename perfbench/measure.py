"""Timed and traced runs of one workload.

An untraced run builds the workload several times (sources and
references; the median is ``setup_s``), then runs its items in turn, each
at least once, until ``seconds`` have passed.  An item run parses and
compiles the item's programs and asks their queries; the answers are
then checked exactly against the references.  A traced run alternates
untraced and traced runs of each item, pass by pass, and reports
per-layer metrics from the spans.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from dippl import compiler, infer, lang
from dippl.oracle import INFEASIBLE

import tracer as tracing
from workloads import BUILD, Item, Query, Workload

# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0

# share of an item run's time spent on extra compiles of its programs
COMPILE_SAMPLE_SHARE = 0.2

_RAISED = object()


@dataclass
class Outcome:
    """One item run: wall times in seconds, diagram sizes, failures.

    ``compile_s`` has one entry per program and ``query_s`` one per query,
    program by program; both are empty when parsing or compiling raised.
    """

    seconds: float
    compile_s: list[float]
    query_s: list[float]
    phi_nodes: int
    store_nodes: int
    failed: int


def _ask(compiled, query: Query, event):
    if query.kind == "marginal":
        return infer.event_prob(compiled, query.init, event).value
    if query.kind == "transition":
        return infer.transition_prob(compiled, query.init, query.target).value
    return infer.accept_prob(compiled, query.init)


def _matches(answer, expected) -> bool:
    if expected is INFEASIBLE or answer is INFEASIBLE:
        return answer is expected
    return isinstance(answer, Fraction) and answer == expected


def run_item(item: Item) -> Outcome:
    """Parse and compile the item's programs, ask their queries one program
    after another in turn, then check the answers."""
    start = time.perf_counter()
    compile_s = []
    compiled = []
    try:
        programs = [lang.parse(case.source) for case in item.cases]
        events = [
            [None if q.event is None else lang.parse_expr(q.event) for q in case.queries]
            for case in item.cases
        ]
        for program in programs:
            begin = time.perf_counter()
            compiled.append(compiler.compile_program(program))
            compile_s.append(time.perf_counter() - begin)
    except Exception:
        traceback.print_exc()
        return Outcome(time.perf_counter() - start, [], [], 0, 0, item.query_count)
    slots = sorted(
        ((q, c) for c, case in enumerate(item.cases) for q in range(len(case.queries)))
    )
    answers = {}
    query_s = {}
    for q, c in slots:
        begin = time.perf_counter()
        try:
            answers[c, q] = _ask(compiled[c], item.cases[c].queries[q], events[c][q])
        except Exception:
            traceback.print_exc()
            answers[c, q] = _RAISED
        query_s[c, q] = time.perf_counter() - begin
    seconds = time.perf_counter() - start
    failed = sum(
        not _matches(answer, item.cases[c].queries[q].expected)
        for (c, q), answer in answers.items()
    )
    return Outcome(
        seconds,
        compile_s,
        [query_s[key] for key in sorted(query_s)],
        sum(x.stats.node_count for x in compiled),
        sum(x.stats.store_nodes for x in compiled),
        failed,
    )


def sample_compiles(item: Item, outcome: Outcome) -> list[list[float]]:
    """Extra ``compile_program`` times of each program of an item whose
    compiles are short next to its whole run (grid, small).  A compile of
    ~100 ms sampled a few times a run reads up to 1.5x apart on a machine
    whose speed drifts; these samples, spread through the run, steady
    ``compile_ms.p50``."""
    if not outcome.compile_s:
        return [[] for _ in item.cases]
    count = int(COMPILE_SAMPLE_SHARE * outcome.seconds / sum(outcome.compile_s))
    programs = [lang.parse(case.source) for case in item.cases] if count else []
    times: list[list[float]] = [[] for _ in item.cases]
    for _ in range(count):
        for c, program in enumerate(programs):
            begin = time.perf_counter()
            compiler.compile_program(program)
            times[c].append(time.perf_counter() - begin)
    return times


def _release():
    """Free the last program's dead store now, outside any timing, so that
    peak memory is one program's and not whatever the collector left.
    Survivors are frozen, so that the next collection only looks at what
    the next program allocates."""
    gc.collect()
    gc.freeze()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


@dataclass
class Result:
    metrics: dict[str, float]
    info: list[str]  # human-readable lines printed before the metrics
    attempted: int
    failed: int


def build(name: str, seed: int) -> tuple[Workload, list[float]]:
    """Build the workload repeatedly; returns the last build and each
    build's wall time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        begin = time.perf_counter()
        workload = BUILD[name](seed)
        times.append(time.perf_counter() - begin)
    return workload, times


def timed_run(name: str, seed: int, seconds: float) -> Result:
    workload, setup_times = build(name, seed)
    items = workload.items
    _release()
    runs: list[list[Outcome]] = [[] for _ in items]
    compiles: list[list[list[float]]] = [[[] for _ in item.cases] for item in items]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(items) or time.perf_counter() < deadline:
        k = i % len(items)
        outcome = run_item(items[k])
        _release()
        runs[k].append(outcome)
        for times, first, extra in zip(compiles[k], outcome.compile_s, sample_compiles(items[k], outcome)):
            times += [first] + extra
        _release()
        i += 1
    # medians per program (and per query) first: programs differ in cost
    # and the last pass is partial, so a median over all samples would
    # depend on where the run stopped
    done = [o for outcomes in runs for o in outcomes]
    compile_s = [_median(times) for per_item in compiles for times in per_item]
    query_s = [
        _median(o.query_s[q] for o in outcomes if o.query_s)
        for item, outcomes in zip(items, runs)
        for q in range(item.query_count)
    ]
    samples = [t for o in done for t in o.query_s]
    attempted = sum(item.query_count * len(outcomes) for item, outcomes in zip(items, runs))
    failed = sum(o.failed for o in done)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "workload_s": sum(_median(o.seconds for o in outcomes) for outcomes in runs),
        "compile_ms.p50": 1000.0 * _median(compile_s),
        "query_ms.p50": 1000.0 * _median(query_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phi_nodes": sum(max((o.phi_nodes for o in outcomes), default=0) for outcomes in runs),
    }
    info = [
        f"items {len(items)}, item runs {len(done)}, set-ups {len(setup_times)}, "
        f"compiles {sum(len(t) for per_item in compiles for t in per_item)}, "
        f"queries {len(samples)}",
        f"error_rate {failed / attempted:.6g} ({failed} of {attempted} answers wrong or raised)",
    ]
    if len(samples) >= 10:
        p90 = statistics.quantiles(samples, n=10)[-1]
        beyond = sum(t > p90 for t in samples)
        if beyond >= 10:
            info.append(f"query_ms.p90 {1000.0 * p90:.4f} ms ({beyond} of {len(samples)} beyond it)")
        else:
            info.append(f"query_ms.p90 not reported: {beyond} of {len(samples)} samples beyond it")
    return Result(metrics, info, attempted, failed)


def traced_run(name: str, seed: int, seconds: float, spans_path) -> Result:
    tracer = tracing.Tracer()
    with tracer.patched():
        workload = BUILD[name](seed)
    setup_spans = tracer.take()
    items = workload.items
    _release()
    untraced: list[list[float]] = [[] for _ in items]
    traced: list[list[float]] = [[] for _ in items]
    passes = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        phi_nodes = store_nodes = 0
        for k, item in enumerate(items):
            # alternate which of the pair goes first, so drift is shared
            for traced_now in ((False, True) if (k + len(passes)) % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.patched():
                        outcome = run_item(item)
                    tracer.settle()
                    traced[k].append(outcome.seconds)
                    phi_nodes += outcome.phi_nodes
                    store_nodes += outcome.store_nodes
                else:
                    outcome = run_item(item)
                    untraced[k].append(outcome.seconds)
                attempted += item.query_count
                failed += outcome.failed
                _release()
        spans = tracer.take()
        passes.append(tracing.pass_metrics(spans, phi_nodes, store_nodes))
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics.update(tracing.setup_metrics(setup_spans))
    metrics["oracle.infeasible_share"] = workload.infeasible_share
    traced_s = sum(statistics.median(ts) for ts in traced)
    metrics["trace.workload_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - sum(statistics.median(ts) for ts in untraced)
    tracing.write_spans(spans_path, setup_spans + spans)
    info = [
        f"items {len(items)}, traced passes {len(passes)}; spans of the set-up and "
        f"the last pass written to {spans_path}",
        f"error_rate {failed / attempted:.6g} ({failed} of {attempted} answers wrong or raised)",
    ]
    return Result(metrics, info, attempted, failed)
