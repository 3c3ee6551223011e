"""Spans around the calls into each dippl layer, recorded from outside.

``Tracer.patched()`` swaps the public functions of ``lang``, ``generators``,
``compiler``, ``infer`` and ``oracle``, and the public ``NodeStore``
methods, for wrappers that record a span per call, and restores them on
exit.  A span holds its name, parent, start and end times and, for
``NodeStore`` methods, the nodes the store allocated during the call
(``len(store)`` delta).  Spans stay in memory; ``pass_metrics`` and
``setup_metrics`` turn them into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from dippl import compiler, generators, infer, lang, oracle
from dippl.bdd import Bdd, NodeStore

import workloads

BDD_OPS = ("iff_cube", "ite", "apply", "rename", "and_exists", "wmc")

# every public NodeStore method that does work, so that no bdd time is
# counted as its caller's self time
_BDD_METHODS = BDD_OPS + ("not_", "exists", "cube", "var", "constant", "node_count", "support")

# (owner, attribute, span name); the benchmark's own small-program
# generator stands in for the generators layer on the small workload
_FUNCTIONS = (
    (lang, "parse", "lang.parse"),
    (lang, "parse_expr", "lang.parse_expr"),
    (generators, "gen_chain", "generators.gen_chain"),
    (generators, "gen_grid", "generators.gen_grid"),
    (workloads.SmallGen, "program", "generators.gen_small"),
    (compiler, "compile_program", "compiler.compile_program"),
    (compiler, "allocate_banks", "compiler.allocate_banks"),
    (compiler, "compile_stmt", "compiler.compile_stmt"),
    (infer, "event_prob", "infer.event_prob"),
    (infer, "transition_prob", "infer.transition_prob"),
    (infer, "accept_prob", "infer.accept_prob"),
    (oracle, "transition", "oracle.transition"),
    (oracle, "output_marginal", "oracle.output_marginal"),
    (oracle, "accepting", "oracle.accepting"),
)

_node_count = NodeStore.node_count


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "alloc", "args", "out", "nodes")

    def __init__(self, id, parent, name, start, end, alloc=0, args=(), out=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.alloc = alloc  # nodes the store allocated during the call
        self.args = args  # handles of the Bdd arguments
        self.out = out  # handle of the Bdd result
        self.nodes = None  # diagram size, filled in by settle()

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0
        self._pending: list[tuple[Span, NodeStore, int]] = []

    def _begin(self) -> tuple[int, Optional[int]]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        return span_id, parent

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span_id, parent = self._begin()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append(Span(span_id, parent, name, start, end))

        return traced

    def _wrap_method(self, name: str, fn: Callable) -> Callable:
        measure_nodes = name in ("bdd.and_exists", "bdd.wmc")

        def traced(store, *args, **kwargs):
            span_id, parent = self._begin()
            before = len(store)
            start = time.perf_counter()
            try:
                result = fn(store, *args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            handles = tuple(a.idx for a in args if isinstance(a, Bdd))
            out = result.idx if isinstance(result, Bdd) else None
            span = Span(span_id, parent, name, start, end, len(store) - before, handles, out)
            self.spans.append(span)
            if measure_nodes:
                # wmc visits every node under its root; and_exists yields
                # the intermediate relation of a sequencing step
                root = out if name == "bdd.and_exists" else handles[0]
                self._pending.append((span, store, root))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Record spans for every library call made inside the block."""
        saved = []
        try:
            for owner, attr, name in _FUNCTIONS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap_function(name, fn))
            for attr in _BDD_METHODS:
                fn = getattr(NodeStore, attr)
                saved.append((NodeStore, attr, fn))
                setattr(NodeStore, attr, self._wrap_method(f"bdd.{attr}", fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def settle(self):
        """Measure the diagrams noted during the last program, while its
        store is still alive; the time is tracing overhead, in no span."""
        for span, store, root in self._pending:
            span.nodes = _node_count(store, Bdd(store, root))
        self._pending.clear()

    def take(self) -> list[Span]:
        self.settle()
        spans, self.spans = self.spans, []
        return spans


def _ms(spans) -> float:
    return 1000.0 * sum(s.dur for s in spans)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur
    return {s.id: s.dur - covered[s.id] for s in spans}


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the traced set-up (sources and references)."""
    return {
        "generators.gen_ms": _ms(s for s in spans if s.name.startswith("generators.")),
        "oracle.ms": _ms(s for s in spans if s.name.startswith("oracle.")),
    }


def pass_metrics(spans: list[Span], phi_nodes: int, store_nodes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's programs."""
    names = {s.id: s.name for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {
        "lang.parse_ms": _ms(by_name["lang.parse"] + by_name["lang.parse_expr"]),
        "compiler.allocate_banks_ms": _ms(by_name["compiler.allocate_banks"]),
        "compiler.compile_stmt_ms": _ms(by_name["compiler.compile_stmt"]),
    }

    # a sequencing step is an and_exists made by compile_stmt, plus the
    # rename that shifts its right operand and the one that shifts its
    # result back (the calls just before and after it)
    step_alloc = []
    step_nodes = []
    for i, s in enumerate(spans):
        if s.name != "bdd.and_exists" or names.get(s.parent) != "compiler.compile_stmt":
            continue
        alloc = s.alloc
        before = spans[i - 1] if i > 0 else None
        after = spans[i + 1] if i + 1 < len(spans) else None
        if before is not None and before.name == "bdd.rename" and before.out == s.args[1]:
            alloc += before.alloc
        if after is not None and after.name == "bdd.rename" and after.args[0] == s.out:
            alloc += after.alloc
        step_alloc.append(alloc)
        step_nodes.append(s.nodes)
    out["compiler.seq_steps"] = len(step_alloc)
    out["compiler.step_alloc.p50"] = statistics.median(step_alloc) if step_alloc else 0
    out["compiler.step_alloc.max"] = max(step_alloc, default=0)
    out["compiler.peak_intermediate_nodes"] = max(step_nodes, default=0)

    for op in BDD_OPS:
        calls = by_name[f"bdd.{op}"]
        out[f"bdd.{op}.calls"] = len(calls)
        out[f"bdd.{op}.ms"] = _ms(calls)
        out[f"bdd.{op}.alloc"] = sum(s.alloc for s in calls)
    out["bdd.store_nodes"] = store_nodes
    out["bdd.useful_ratio"] = phi_nodes / store_nodes
    out["bdd.wmc.nodes"] = sum(s.nodes for s in by_name["bdd.wmc"])

    queries = [s for s in spans if s.name.startswith("infer.")]
    own = self_times(spans)
    out["infer.query_self_ms"] = 1000.0 * sum(own[s.id] for s in queries)
    query_ids = {s.id for s in queries}
    out["infer.wmc_passes"] = sum(1 for s in by_name["bdd.wmc"] if s.parent in query_ids)
    return out


def write_spans(path, spans: list[Span]):
    """Gzipped JSON lines, one span each: id, parent, name, start and
    duration in ms (start relative to the first span), self time,
    allocation, nodes."""
    if not spans:
        return
    origin = min(s.start for s in spans)
    own = self_times(spans)
    with gzip.open(path, "wt") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            record = {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_ms": round(1000.0 * (s.start - origin), 4),
                "dur_ms": round(1000.0 * s.dur, 4),
                "self_ms": round(1000.0 * own[s.id], 4),
                "alloc": s.alloc,
            }
            if s.nodes is not None:
                record["nodes"] = s.nodes
            fh.write(json.dumps(record) + "\n")
