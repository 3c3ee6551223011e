"""Workload construction for the dippl benchmark: sources, queries, references.

Every workload is a list of ``Item``s built from the workload seed.  An
item is one or more programs (``Case``s), each a source text plus the
exact queries asked of it, each query with its expected answer.
Expected answers never come from the compiler: ``small`` uses the
enumerative oracle directly, and ``chain`` and ``grid`` (too wide for
whole-state enumeration) use ``forward_marginals``, which runs the
oracle one top-level statement at a time.

The library is reached through module attributes (``generators.gen_chain``,
``oracle.transition``, ...) so that a traced run can wrap them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from dippl import generators, lang, oracle
from dippl.lang import Assign, Flip, If, Observe, Program, Seq, Skip, Stmt, expr_vars
from dippl.oracle import INFEASIBLE, InfeasibleEvidence, State

Answer = Union[Fraction, InfeasibleEvidence]

CHAIN_LENGTH = 300
CHAIN_PROGRAMS = 3
GRID_SIDE = 6
GRID_DETERMINISM = ("0", "0.5", "0.9")
SMALL_PROGRAMS = 3000

# Generator seeds for ``grid``, one of which the workload seed picks.  At
# d = 0.5 the grid's diagram size depends on the generator seed far more
# than on anything else (907 to 5,990 nodes over seeds 0-19), which would
# swamp any regression bound.  The pool holds the seeds in 0-299 whose
# d = 0.5 diagram is within 2% of the median size over those 300 seeds
# (1,735 nodes) and whose d = 0.9 diagram has at most 150 nodes, as
# compiled at the commit that introduced this benchmark.
GRID_SEED_POOL = (5, 40, 115, 195, 229, 240, 267)


@dataclass(frozen=True)
class Query:
    """One exact question: ``kind`` is marginal, transition or accept.

    ``init`` None means the all-false state.  ``event`` is source text
    (parsed in the timed phase), ``target`` the output state asked for.
    """

    kind: str
    expected: Answer
    init: Optional[State] = None
    event: Optional[str] = None
    target: Optional[State] = None


@dataclass(frozen=True)
class Case:
    source: str
    queries: tuple[Query, ...]


@dataclass(frozen=True)
class Item:
    """Programs run together: all are parsed and compiled, then asked their
    queries one program after another in turn, so that each program's
    queries spread over the whole run of the item."""

    cases: tuple[Case, ...]

    @property
    def query_count(self) -> int:
        return sum(len(case.queries) for case in self.cases)


@dataclass(frozen=True)
class Workload:
    items: tuple[Item, ...]
    infeasible_share: float  # share of programs whose evidence is infeasible


# -- forward reference for chain and grid --------------------------------------


def _spine(s: Stmt) -> list[Stmt]:
    if isinstance(s, Seq):
        return _spine(s.first) + _spine(s.second)
    return [s]


def _mentions(s: Stmt) -> set[str]:
    """Variables a statement reads or writes; rejects ``observe``."""
    if isinstance(s, Skip):
        return set()
    if isinstance(s, Flip):
        return {s.target}
    if isinstance(s, Assign):
        return {s.target, *expr_vars(s.rhs)}
    if isinstance(s, If):
        return {*expr_vars(s.cond), *_mentions(s.then_branch), *_mentions(s.else_branch)}
    if isinstance(s, Seq):
        return _mentions(s.first) | _mentions(s.second)
    if isinstance(s, Observe):
        # conditioning reaches back to variables no later statement
        # mentions, so dropping them early would be unsound
        raise ValueError("forward_marginals needs an observe-free program")
    raise TypeError(f"not a statement: {s!r}")


def forward_marginals(program: Program) -> dict[str, Fraction]:
    """Final marginal of every variable, run from the all-false state.

    Runs ``oracle.transition`` on each top-level statement over a joint
    distribution of only the variables that some later statement still
    mentions.  A variable leaves the distribution after its last mention,
    and its marginal at that point is final.  Exact for observe-free
    programs, and cheap when few variables are live at once (2 for a
    chain, about k + 1 for a k-grid).
    """
    stmts = _spine(program.body)
    mentions = [_mentions(s) for s in stmts]
    last = {name: i for i, names in enumerate(mentions) for name in names}
    tracked: list[str] = []
    dist: dict[tuple[bool, ...], Fraction] = {(): Fraction(1)}
    result = {name: Fraction(0) for name in program.vars if name not in last}
    for i, stmt in enumerate(stmts):
        fresh = [name for name in program.vars if name in mentions[i] and name not in tracked]
        if fresh:
            tracked += fresh
            dist = {values + (False,) * len(fresh): m for values, m in dist.items()}
        local = tuple(name for name in tracked if name in mentions[i])
        pos = [tracked.index(name) for name in local]
        stepped: dict[tuple[bool, ...], Fraction] = {}
        outcomes: dict[tuple[bool, ...], oracle.StateDistribution] = {}
        for values, m in dist.items():
            key = tuple(values[p] for p in pos)
            out = outcomes.get(key)
            if out is None:
                out = outcomes[key] = oracle.transition(stmt, State(local, key))
            for state, m2 in out.mass.items():
                new = list(values)
                for p, v in zip(pos, state.values):
                    new[p] = v
                new = tuple(new)
                stepped[new] = stepped.get(new, 0) + m * m2
        dist = stepped
        dead = [j for j, name in enumerate(tracked) if last[name] == i]
        for j in dead:
            result[tracked[j]] = sum(
                (m for values, m in dist.items() if values[j]), Fraction(0)
            )
        if dead:
            keep = [j for j in range(len(tracked)) if j not in dead]
            tracked = [tracked[j] for j in keep]
            marginal: dict[tuple[bool, ...], Fraction] = {}
            for values, m in dist.items():
                key = tuple(values[j] for j in keep)
                marginal[key] = marginal.get(key, 0) + m
            dist = marginal
    return result


def marginal_case(source: str, names: list[str]) -> Case:
    marginals = forward_marginals(lang.parse(source))
    return Case(source, tuple(Query("marginal", marginals[name], event=name) for name in names))


# -- the three workloads -----------------------------------------------------------


def build_chain(seed: int) -> Workload:
    """A few chains of length 300: sink marginal and a mid-chain marginal."""
    rng = random.Random(seed)
    items = []
    for _ in range(CHAIN_PROGRAMS):
        gen_seed = rng.getrandbits(64)
        source = generators.gen_chain(CHAIN_LENGTH, gen_seed)
        names = [f"x{CHAIN_LENGTH}", f"x{CHAIN_LENGTH // 2}"]
        items.append(Item((marginal_case(source, names),)))
    return Workload(tuple(items), 0.0)


def build_grid(seed: int) -> Workload:
    """One 6-grid seed at three determinism levels, run as one item whose
    queries alternate between the levels; every output marginal."""
    gen_seed = random.Random(seed).choice(GRID_SEED_POOL)
    names = [f"g{i}_{j}" for i in range(GRID_SIDE) for j in range(GRID_SIDE)]
    cases = tuple(
        marginal_case(generators.gen_grid(GRID_SIDE, d, seed=gen_seed), names)
        for d in GRID_DETERMINISM
    )
    return Workload((Item(cases),), 0.0)


_DENOMINATORS = (2, 3, 4, 5, 10)
# The oracle enumerates all 2^n states for every reachable state of every
# sequence, so references cost about 4^n for n variables.  Programs get at
# most MAX_FLIPS flips, which bounds the reachable states, and n = k gets a
# share of the workload proportional to 3^-k (at least one program).  Fixed
# shares, rather than a random draw of n, keep the workload's cost the same
# from seed to seed.
MAX_FLIPS = 4
VAR_COUNTS = range(2, 11)


class SmallGen:
    """Seeded random small programs: 2-10 variables, nested ``if``, ``:=``,
    ``flip`` and ``observe``, emitted as source text."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.flips_left = MAX_FLIPS

    def theta(self) -> str:
        d = self.rng.choice(_DENOMINATORS)
        return f"{self.rng.randint(1, d - 1)}/{d}"

    def expr(self, names: list[str], depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.45:
            leaf = rng.choice(names) if rng.random() < 0.95 else rng.choice(("true", "false"))
            return f"!{leaf}" if rng.random() < 0.25 else leaf
        op = "&&" if roll < 0.75 else "||"
        return f"({self.expr(names, depth + 1)} {op} {self.expr(names, depth + 1)})"

    def stmt(self, names: list[str], target: Optional[str], depth: int) -> str:
        """One statement; writes ``target`` when given, else anything."""
        rng = self.rng
        roll = rng.random()
        if target is None:
            if roll < 0.12:
                return f"observe({self.expr(names)})"
            target = rng.choice(names)
            roll = rng.random()
        if depth < 2 and roll < 0.3:
            then_branch = self.block(names, target, depth + 1)
            else_branch = self.block(names, target, depth + 1)
            return f"if {self.expr(names)} {{ {then_branch} }} else {{ {else_branch} }}"
        if roll < 0.7 and self.flips_left:
            self.flips_left -= 1
            return f"{target} ~ flip({self.theta()})"
        if roll < 0.97 or depth == 0:
            return f"{target} := {self.expr(names)}"
        return "skip"

    def block(self, names: list[str], target: str, depth: int) -> str:
        stmts = [self.stmt(names, target, depth)]
        if self.rng.random() < 0.35:
            stmts.append(self.stmt(names, None, depth))
        return "; ".join(stmts)

    def program(self, n: int) -> str:
        """Every one of the ``n`` variables is written, in a shuffled order,
        with a few extra statements in between."""
        rng = self.rng
        self.flips_left = MAX_FLIPS
        names = [f"v{i}" for i in range(n)]
        order = names[:]
        rng.shuffle(order)
        stmts = []
        for name in order:
            stmts.append(self.stmt(names, name, 0))
            if rng.random() < 0.4:
                stmts.append(self.stmt(names, None, 0))
        return ";\n".join(stmts) + "\n"


def build_small(seed: int) -> Workload:
    """About 3,000 random small programs, each asked a marginal, a
    transition and an acceptance query from a random initial state."""
    rng = random.Random(seed)
    gen = SmallGen(rng)
    total = sum(3.0**-n for n in VAR_COUNTS)
    sources = [
        gen.program(n)
        for n in VAR_COUNTS
        for _ in range(max(1, round(SMALL_PROGRAMS * 3.0**-n / total)))
    ]
    rng.shuffle(sources)
    items = []
    infeasible = 0
    for source in sources:
        program = lang.parse(source)
        init = State(program.vars, [rng.random() < 0.5 for _ in program.vars])
        event = gen.expr(list(program.vars))
        dist = oracle.transition(program, init)
        if dist.is_bottom:
            infeasible += 1
            target = init
            expected_target: Answer = INFEASIBLE
        else:
            support = sorted(dist.mass, key=lambda s: s.values)
            target = rng.choice(support)
            expected_target = dist.prob(target)
        queries = (
            Query(
                "marginal",
                oracle.output_marginal(program, init, lang.parse_expr(event)),
                init=init,
                event=event,
            ),
            Query("transition", expected_target, init=init, target=target),
            Query("accept", oracle.accepting(program, init), init=init),
        )
        items.append(Item((Case(source, queries),)))
    return Workload(tuple(items), infeasible / len(sources))


BUILD = {"chain": build_chain, "grid": build_grid, "small": build_small}
