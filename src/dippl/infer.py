"""Probability queries against compiled programs.

Every query is a ratio of weighted model counts over the compiled
relation ``phi`` conditioned on the input state ``s``.  Conditioning is
restriction: ``phi|s`` is the cofactor of ``phi`` with every input
(unprimed) variable fixed to its value in ``s`` (``NodeStore.restrict``),
a function of the output and flip variables only.  With ``<t>'`` the
output-state cube,

    transition probability  =  wmc(phi|s & <t>') / wmc(phi|s)
    acceptance probability  =  wmc(phi|s)
    event probability       =  wmc(phi|s & event') / wmc(phi|s)

where ``event'`` is the query expression compiled straight onto the
output bank.  These equal the counts of the conjunction ``phi & <s>``
(``<s>`` the input-state cube) over the input bank as well, because the
input variables weigh ``(1, 1)`` and ``<s>`` fixes them; but the
cofactor is smaller than the conjunction, and one walk over ``phi``
builds it, where the conjunction needs a cube and an ``apply``.
The ratios are one path: a transition query is an event
query whose event is the target cube, and ``marginals`` asks every
variable's literal as an event from one conditioning and one
denominator.  The weights and the universe are
``compiled.banks.weights`` and ``compiled.banks.universe``.
Start and target states must bind each program variable exactly once,
in any order (see ``State.in_order``).
A zero denominator means the evidence rejected every execution path;
that outcome is reported as the first-class ``INFEASIBLE`` value, never
as an exception and never as probability zero, and no numerator is
counted.  Numerator and denominator are always reported alongside the
ratio.

Each result's ``stats.query_ms`` is the wall clock of the whole query,
from entry to answer: conditioning and both counts (for ``marginals``,
the whole call).

Answers are exact ``Fraction``s.  ``NodeStore.wmc`` counts on Python
ints scaled by a product ``S`` of the weights' denominators and divides
``S`` out once.  A caller that wants a decimal applies ``float()`` to
the answer; there is no second arithmetic.

Only the inputs ``phi`` reads are fixed (``CompiledProgram.reads``), and
a program that reads none, such as one that writes every variable
before reading it, is its own cofactor on every start state.  The store
keeps each cofactor in its operation cache, keyed by the inputs read
and their values, so every query after the first from one start state
conditions with a lookup.  The
queries on one program share the store's count table and literal
counts for the program's weights and universe; ``NodeStore.wmc`` owns
what they keep.  A denominator is one ``wmc`` call on ``phi|s``, and a
numerator one call with the event beside it, so the table holds the
cofactors' nodes only, a repeated denominator is one lookup, and every
literal marginal after the first from one start state is a lookup too.
The cofactors and tables, like the rest of the store, make a compiled
program stateful: queries on one ``CompiledProgram`` must not run
concurrently.

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
from .bdd import Bdd
from .compiler import CompiledProgram, compile_expr, compile_program, state_cube
from .lang import Expr, Program, TRUE
from .oracle import INFEASIBLE, InfeasibleEvidence, State

ORACLE_VAR_LIMIT = 12

Value = Union[Fraction, InfeasibleEvidence]


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
    query_ms: float


@dataclass(frozen=True)
class InferenceResult:
    """A WMC ratio with its raw numerator/denominator for auditability."""

    value: Value
    numerator: Fraction
    denominator: Fraction
    stats: InferenceStats

    @property
    def infeasible(self) -> bool:
        return self.value is INFEASIBLE


def _conditioned(compiled: CompiledProgram, from_state: Optional[State]) -> Bdd:
    """``phi|s``: the cofactor of the relation with the input bank fixed to
    ``from_state`` (all-false when missing), which must bind each program
    variable exactly once (ValueError otherwise).  Only the inputs ``phi``
    reads (``compiled.reads``, with their ids in ``compiled.read_ids``)
    are fixed, and ``phi`` is its own cofactor when it reads none.  The
    store keeps the cofactor per value of those inputs, so a repeated
    start state is one lookup."""
    vars = compiled.program.vars
    if from_state is None:
        values = (False,) * len(vars)
    else:
        values = from_state.in_order(vars).values
    reads = compiled.reads
    if not reads:
        return compiled.phi
    return compiled.store.restrict(compiled.phi, compiled.read_ids, [values[i] for i in reads])


def _count(compiled: CompiledProgram, conditioned: Bdd, event: Optional[Bdd] = None) -> Fraction:
    """WMC of ``conditioned`` (``phi|s``), or of ``conditioned & event``,
    under the program's weights and universe; ``NodeStore.wmc`` decides
    what its count table keeps."""
    banks = compiled.banks
    return compiled.store.wmc(conditioned, banks.weights, banks.universe, event=event)


def _query(
    compiled: CompiledProgram, from_state: Optional[State], events: list[Bdd], begin: float
) -> list[InferenceResult]:
    """``wmc(phi|s & e) / wmc(phi|s)`` for each event ``e``, from
    one conditioning and one denominator; no numerator is counted when
    the denominator is 0.  ``query_ms`` runs from ``begin``, the
    ``perf_counter`` reading at the query's entry, to the last answer."""
    conditioned = _conditioned(compiled, from_state)
    denominator = _count(compiled, conditioned)
    if denominator == 0:
        answers = [(INFEASIBLE, Fraction(0))] * len(events)
    else:
        answers = []
        for event_bdd in events:
            numerator = _count(compiled, conditioned, event_bdd)
            answers.append((numerator / denominator, numerator))
    stats = InferenceStats(query_ms=(time.perf_counter() - begin) * 1000.0)
    return [InferenceResult(value, numerator, denominator, stats) for value, numerator in answers]


def accept_prob(compiled: CompiledProgram, from_state: Optional[State] = None) -> Fraction:
    """Probability that no observation fails when run from ``from_state``."""
    return _count(compiled, _conditioned(compiled, from_state))


def transition_prob(
    compiled: CompiledProgram, from_state: Optional[State], to_state: State
) -> InferenceResult:
    """Conditional probability of ending in exactly ``to_state``, which
    must bind each program variable exactly once (ValueError otherwise)."""
    begin = time.perf_counter()
    to_state = to_state.in_order(compiled.program.vars)
    target = state_cube(to_state, compiled.banks.primed, compiled.store)
    return _query(compiled, from_state, [target], begin)[0]


def event_prob(
    compiled: CompiledProgram, from_state: Optional[State], event: Expr
) -> InferenceResult:
    """Conditional probability that ``event`` holds in the output state."""
    begin = time.perf_counter()
    event_bdd = compile_expr(event, compiled.banks.primed, compiled.store)
    return _query(compiled, from_state, [event_bdd], begin)[0]


def marginals(
    compiled: CompiledProgram, from_state: Optional[State] = None
) -> dict[str, InferenceResult]:
    """Conditional probability that each program variable is true in the
    output state, by name.

    One conditioning and one denominator serve every variable, and each
    numerator is read from the literal counts of ``phi|s``, which one
    downward pass builds (see ``NodeStore.wmc``).  Every entry is
    ``INFEASIBLE`` when the denominator is 0.  Each result's ``query_ms``
    is the wall clock of the whole call.
    """
    begin = time.perf_counter()
    store, primed = compiled.store, compiled.banks.primed
    names = compiled.program.vars
    events = [store.var(primed[name]) for name in names]
    return dict(zip(names, _query(compiled, from_state, events, begin)))


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
        compiled_value = transition_prob(compiled, init, query.target).value
        dist = oracle.transition(program, init)
        # the oracle's states list the variables in program order
        target = query.target.in_order(program.vars)
        oracle_value = INFEASIBLE if dist.is_bottom else dist.prob(target)
    else:
        oracle_value = oracle.output_marginal(program, init, query.event)
        compiled_value = event_prob(compiled, init, query.event).value

    # INFEASIBLE equals only itself
    equal = oracle_value == compiled_value
    return OracleCheck(equal, oracle_value, compiled_value, query)
