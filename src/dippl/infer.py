"""Probability queries against compiled programs.

Every query is a ratio of weighted model counts over the compiled
relation ``phi``: with ``<s>`` the input-state cube and ``<t>'`` the
output-state cube,

    transition probability  =  wmc(phi & <s> & <t>') / wmc(phi & <s>)
    acceptance probability  =  wmc(phi & <s>)
    event probability       =  wmc(phi & <s> & event') / wmc(phi & <s>)

where ``event'`` is the query expression compiled over the output bank.
A zero denominator means the evidence rejected every execution path;
that outcome is reported as the first-class ``INFEASIBLE`` value, never
as an exception and never as probability zero.  Numerator and
denominator are always reported alongside the ratio.

Counts are exact.  ``NodeStore.wmc`` counts on Python ints scaled by a
product ``S`` of the weights' denominators and divides ``S`` out once,
returning a ``Fraction``.  ``as_float`` is output formatting only: the
query is answered exactly and ``float()`` of the value, numerator and
denominator is returned.

A node's scaled count depends only on the node, the weights and the
universe, and all three are fixed for a ``CompiledProgram``, so the
queries on one program share a table of node counts (freed with the
program).  Passes over a conditioned diagram ``phi & <s>``
(denominators and ``accept_prob``) add their nodes to it; numerator
passes only read it.  Below its event's variables a numerator
diagram is ``phi & <s>`` itself, so once the denominator is known a
numerator counts only the nodes above its event, and a repeated
denominator costs one lookup.  Keeping numerator nodes out bounds the
table by the conditioned diagrams.  The table makes a compiled program
stateful: queries on one ``CompiledProgram`` must not run concurrently.

``check_against_oracle`` runs the same query through the enumerative
reference interpreter and demands exact rational agreement (with bottom
mapping to ``INFEASIBLE``); it is the executable form of the compiler's
correctness theorem and backs the differential test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import oracle
from .compiler import CompiledProgram, compile_expr, compile_program, state_cube
from .lang import Expr, Program, TRUE
from .oracle import INFEASIBLE, InfeasibleEvidence, State

ORACLE_VAR_LIMIT = 12

Value = Union[Fraction, float, InfeasibleEvidence]


class OracleTooLarge(Exception):
    """The reference interpreter is capped at ORACLE_VAR_LIMIT variables."""


@dataclass(frozen=True)
class Query:
    """A probability question about a program.

    ``mode`` is one of ``"marginal"`` (probability of ``event`` in the
    output state), ``"transition"`` (probability of exactly ``target``),
    or ``"accepting"``.  A missing ``init_state`` means all-false.
    """

    mode: str = "marginal"
    init_state: Optional[State] = None
    event: Optional[Expr] = None
    target: Optional[State] = None

    def __post_init__(self):
        if self.mode not in ("marginal", "transition", "accepting"):
            raise ValueError(f"unknown query mode {self.mode!r}")
        if self.mode == "marginal" and self.event is None:
            object.__setattr__(self, "event", TRUE)
        if self.mode == "transition" and self.target is None:
            raise ValueError("transition queries need a target state")


@dataclass(frozen=True)
class InferenceStats:
    phi_nodes: int
    query_ms: float


@dataclass(frozen=True)
class InferenceResult:
    """A WMC ratio with its raw numerator/denominator for auditability."""

    value: Value
    numerator: Union[Fraction, float]
    denominator: Union[Fraction, float]
    stats: InferenceStats

    @property
    def infeasible(self) -> bool:
        return self.value is INFEASIBLE


def _init_state(compiled: CompiledProgram, state: Optional[State]) -> State:
    if state is None:
        return State.all_false(compiled.program.vars)
    if set(state.vars) != set(compiled.program.vars):
        raise ValueError("state domain differs from the program's variables")
    return state


def _count(compiled: CompiledProgram, bdd, *, extend_table: bool) -> Fraction:
    """WMC of ``bdd`` through the program's shared table; only passes
    over conditioned diagrams (``phi & <s>``) extend it."""
    return compiled.store.wmc(
        bdd,
        compiled.weights,
        compiled.banks.universe,
        table=compiled.exact_counts,
        extend_table=extend_table,
    )


def _ratio(
    compiled: CompiledProgram, numerator_bdd, denominator_bdd, *, as_float: bool
) -> InferenceResult:
    begin = time.perf_counter()
    denominator = _count(compiled, denominator_bdd, extend_table=True)
    if denominator == 0:
        value: Value = INFEASIBLE
        numerator = Fraction(0)
    else:
        numerator = _count(compiled, numerator_bdd, extend_table=False)
        value = numerator / denominator
    if as_float:
        if value is not INFEASIBLE:
            value = float(value)
        numerator, denominator = float(numerator), float(denominator)
    elapsed_ms = (time.perf_counter() - begin) * 1000.0
    stats = InferenceStats(
        phi_nodes=compiled.stats.node_count, query_ms=elapsed_ms
    )
    return InferenceResult(value, numerator, denominator, stats)


def accept_prob(
    compiled: CompiledProgram, from_state: Optional[State] = None, *, as_float: bool = False
) -> Union[Fraction, float]:
    """Probability that no observation fails when run from ``from_state``."""
    from_state = _init_state(compiled, from_state)
    conditioned = compiled.phi & state_cube(
        from_state, compiled.banks.unprimed, compiled.store
    )
    value = _count(compiled, conditioned, extend_table=True)
    return float(value) if as_float else value


def transition_prob(
    compiled: CompiledProgram,
    from_state: Optional[State],
    to_state: State,
    *,
    as_float: bool = False,
) -> InferenceResult:
    """Conditional probability of ending in exactly ``to_state``."""
    from_state = _init_state(compiled, from_state)
    store, banks = compiled.store, compiled.banks
    conditioned = compiled.phi & state_cube(from_state, banks.unprimed, store)
    numerator_bdd = conditioned & state_cube(to_state, banks.primed, store)
    return _ratio(compiled, numerator_bdd, conditioned, as_float=as_float)


def event_prob(
    compiled: CompiledProgram,
    from_state: Optional[State],
    event: Expr,
    *,
    as_float: bool = False,
) -> InferenceResult:
    """Conditional probability that ``event`` holds in the output state."""
    from_state = _init_state(compiled, from_state)
    store, banks = compiled.store, compiled.banks
    event_bdd = store.rename(
        {banks.unprimed[x]: banks.primed[x] for x in banks.unprimed},
        compile_expr(event, banks, store),
    )
    conditioned = compiled.phi & state_cube(from_state, banks.unprimed, store)
    return _ratio(compiled, conditioned & event_bdd, conditioned, as_float=as_float)


def check_oracle_cap(program: Program):
    """Raise OracleTooLarge if ``program`` has more than ORACLE_VAR_LIMIT
    variables, beyond which enumerating its states is too slow."""
    if len(program.vars) > ORACLE_VAR_LIMIT:
        raise OracleTooLarge(
            f"{len(program.vars)} variables exceed the cap of {ORACLE_VAR_LIMIT}"
        )


@dataclass(frozen=True)
class OracleCheck:
    """Outcome of one compiled-versus-interpreter comparison."""

    equal: bool
    oracle_value: Value
    compiled_value: Value
    query: Query


def check_against_oracle(
    program: Program,
    query: Query,
    compiled: Optional[CompiledProgram] = None,
) -> OracleCheck:
    """Run one query through both pipelines and compare exactly.

    The interpreter enumerates the state space, so programs above
    ORACLE_VAR_LIMIT variables are refused (OracleTooLarge).
    """
    check_oracle_cap(program)
    if compiled is None:
        compiled = compile_program(program)
    init = query.init_state
    if init is None:
        init = State.all_false(program.vars)

    if query.mode == "accepting":
        oracle_value: Value = oracle.accepting(program, init)
        compiled_value: Value = accept_prob(compiled, init)
    elif query.mode == "transition":
        dist = oracle.transition(program, init)
        oracle_value = INFEASIBLE if dist.is_bottom else dist.prob(query.target)
        compiled_value = transition_prob(compiled, init, query.target).value
    else:
        oracle_value = oracle.output_marginal(program, init, query.event)
        compiled_value = event_prob(compiled, init, query.event).value

    if oracle_value is INFEASIBLE or compiled_value is INFEASIBLE:
        equal = oracle_value is compiled_value
    else:
        equal = oracle_value == compiled_value
    return OracleCheck(equal, oracle_value, compiled_value, query)
