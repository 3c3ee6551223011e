"""Enumerative reference interpreter for dippl.

Implements the language's denotational semantics directly over explicit
state distributions with exact rational arithmetic:

* ``transition(s, sigma)`` -- the normalized conditional probability of
  each output state given that execution starts in ``sigma`` and no
  observation is violated;
* ``accepting(s, sigma)`` -- the probability that no observation is
  violated when executing ``s`` from ``sigma``.

Sequencing renormalizes by the downstream acceptance mass: the mass of
``s1; s2`` at an output state is

    sum_tau T[s1](tau|sigma) * T[s2](out|tau) * A[s2](tau)
    ---------------------------------------------------------
    sum_tau T[s1](tau|sigma) * A[s2](tau)

with the sums ranging over the full state space.  A zero denominator
yields the bottom distribution (every execution path was rejected),
which queries surface as the first-class ``INFEASIBLE`` result, never as
probability zero.

This interpreter enumerates the state space, so it is exponential in the
number of program variables.  It is the ground-truth oracle that the
symbolic compiler is differentially tested against; it is only meant to
be correct and exact, not fast, and is capped at 12 variables by the
harnesses that drive it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

from .lang import (
    And,
    Const,
    Expr,
    Not,
    Or,
    Program,
    Stmt,
    Seq,
    Skip,
    Assign,
    Flip,
    If,
    Observe,
    UnknownVariable,
    VarRef,
)


class InfeasibleEvidence:
    """Marker for queries whose evidence rejects every execution path.

    A single instance, ``INFEASIBLE``, is used everywhere; test with
    ``result is INFEASIBLE``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "InfeasibleEvidence"


INFEASIBLE = InfeasibleEvidence()


class State:
    """A total map from a fixed tuple of program variables to Booleans."""

    __slots__ = ("_vars", "_values", "_hash")

    def __init__(self, vars: Iterable[str], values: Iterable[bool]):
        vars = tuple(vars)
        values = tuple(bool(v) for v in values)
        if len(vars) != len(values):
            raise ValueError("variable and value counts differ")
        object.__setattr__(self, "_vars", vars)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", hash((vars, values)))

    def __setattr__(self, name, value):
        raise AttributeError("State is immutable")

    @property
    def vars(self) -> tuple[str, ...]:
        return self._vars

    @property
    def values(self) -> tuple[bool, ...]:
        return self._values

    def __getitem__(self, name: str) -> bool:
        try:
            return self._values[self._vars.index(name)]
        except ValueError:
            raise UnknownVariable(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __eq__(self, other):
        return (
            isinstance(other, State)
            and self._values == other._values
            and self._vars == other._vars
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = ", ".join(
            f"{n}={'T' if v else 'F'}" for n, v in zip(self._vars, self._values)
        )
        return f"State({pairs})"

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self._vars, self._values))

    def with_value(self, name: str, value: bool) -> "State":
        try:
            pos = self._vars.index(name)
        except ValueError:
            raise UnknownVariable(name) from None
        if self._values[pos] == value:
            return self
        values = self._values[:pos] + (bool(value),) + self._values[pos + 1 :]
        return State(self._vars, values)

    @classmethod
    def from_mapping(cls, vars: Iterable[str], mapping: Mapping[str, bool]) -> "State":
        vars = tuple(vars)
        missing = [name for name in vars if name not in mapping]
        if missing:
            raise UnknownVariable(missing[0])
        extra = set(mapping) - set(vars)
        if extra:
            raise ValueError(f"state binds variables outside the program: {sorted(extra)}")
        return cls(vars, tuple(mapping[name] for name in vars))

    @classmethod
    def all_false(cls, vars: Iterable[str]) -> "State":
        vars = tuple(vars)
        return cls(vars, (False,) * len(vars))


def all_states(vars: Iterable[str]) -> Iterator[State]:
    """All 2^n states over ``vars``, in a fixed order (False before True)."""
    vars = tuple(vars)
    for values in product((False, True), repeat=len(vars)):
        yield State(vars, values)


class StateDistribution:
    """An exact distribution over states, or the bottom element.

    Zero-mass states are never stored, so two distributions are equal
    exactly when they assign the same mass everywhere.  The bottom
    element (empty mass, flagged) represents the all-rejecting outcome.
    """

    __slots__ = ("_mass", "_bottom")

    def __init__(self, mass: Mapping[State, Fraction], bottom: bool = False):
        if bottom and mass:
            raise ValueError("bottom distribution carries no mass")
        self._bottom = bottom
        self._mass = {s: m for s, m in mass.items() if m != 0}

    @classmethod
    def bottom(cls) -> "StateDistribution":
        return cls({}, bottom=True)

    @classmethod
    def point(cls, state: State) -> "StateDistribution":
        return cls({state: Fraction(1)})

    @property
    def is_bottom(self) -> bool:
        return self._bottom

    @property
    def mass(self) -> Mapping[State, Fraction]:
        return MappingProxyType(self._mass)

    def prob(self, state: State) -> Fraction:
        return self._mass.get(state, Fraction(0))

    def total(self) -> Fraction:
        return sum(self._mass.values(), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, StateDistribution)
            and self._bottom == other._bottom
            and self._mass == other._mass
        )

    def __repr__(self):
        if self._bottom:
            return "StateDistribution.bottom()"
        inner = ", ".join(f"{s!r}: {m}" for s, m in self._mass.items())
        return f"StateDistribution({{{inner}}})"


_BOTTOM = StateDistribution.bottom()
_ONE = Fraction(1)
_ZERO = Fraction(0)


def eval_expr(e: Expr, state: State) -> bool:
    """Truth-table evaluation of ``e`` in ``state``."""
    return _evaluate(e, state.values, {name: i for i, name in enumerate(state.vars)})


def _evaluate(e: Expr, values: tuple[bool, ...], index: Mapping[str, int]) -> bool:
    """Truth value of ``e`` where variable ``x`` has value ``values[index[x]]``.

    Operands are evaluated left to right with an explicit stack, since
    operator chains nest as deep as they are long; ``&&`` and ``||``
    skip their right operand once the left one decides.
    """
    # the stack holds the operators above the operand being evaluated:
    # None for a negation, or the And/Or node whose left operand it is
    stack: list = []
    node = e
    while True:
        kind = type(node)
        while kind is Not or kind is And or kind is Or:
            if kind is Not:
                stack.append(None)
                node = node.inner
            else:
                stack.append(node)
                node = node.lhs
            kind = type(node)
        if kind is VarRef:
            try:
                value = values[index[node.name]]
            except KeyError:
                raise UnknownVariable(node.name) from None
        elif kind is Const:
            value = node.value
        else:
            raise TypeError(f"not an expression: {node!r}")
        while stack:
            op = stack.pop()
            if op is None:
                value = not value
            elif value != (type(op) is Or):
                # the left operand did not decide: the right one's value
                # is the operator's
                node = op.rhs
                break
        else:
            return value


class _Evaluator:
    """One top-level semantic evaluation: state space plus memo tables.

    Memoization is per (statement node, input state); tables live only as
    long as the evaluation, so concurrent evaluations never share state.
    """

    def __init__(self, vars: tuple[str, ...]):
        self.vars = vars
        self.index = {name: i for i, name in enumerate(vars)}
        self.states = list(all_states(vars))
        self._interned = {s.values: s for s in self.states}
        self._memo_t: dict[tuple[int, State], StateDistribution] = {}
        self._memo_a: dict[tuple[int, State], Fraction] = {}

    def _replace(self, state: State, pos: int, value: bool) -> State:
        values = state.values
        if values[pos] == value:
            return state
        return self._interned[values[:pos] + (value,) + values[pos + 1 :]]

    def transition(self, stmt: Stmt, state: State) -> StateDistribution:
        key = (id(stmt), state)
        cached = self._memo_t.get(key)
        if cached is not None:
            return cached
        result = self._transition(stmt, state)
        self._memo_t[key] = result
        return result

    def _transition(self, stmt: Stmt, state: State) -> StateDistribution:
        if isinstance(stmt, Skip):
            return StateDistribution.point(state)
        if isinstance(stmt, Assign):
            value = _evaluate(stmt.rhs, state.values, self.index)
            return StateDistribution.point(
                self._replace(state, self.index[stmt.target], value)
            )
        if isinstance(stmt, Flip):
            pos = self.index[stmt.target]
            theta = stmt.theta
            return StateDistribution(
                {
                    self._replace(state, pos, True): theta,
                    self._replace(state, pos, False): _ONE - theta,
                }
            )
        if isinstance(stmt, Observe):
            if _evaluate(stmt.cond, state.values, self.index):
                return StateDistribution.point(state)
            return _BOTTOM
        if isinstance(stmt, If):
            branch = (
                stmt.then_branch
                if _evaluate(stmt.cond, state.values, self.index)
                else stmt.else_branch
            )
            return self.transition(branch, state)
        if isinstance(stmt, Seq):
            return self._transition_seq(stmt, state)
        raise TypeError(f"not a statement: {stmt!r}")

    def _transition_seq(self, stmt: Seq, state: State) -> StateDistribution:
        first_dist = self.transition(stmt.first, state)
        if first_dist.is_bottom:
            return _BOTTOM
        mass = first_dist.mass
        numerator: dict[State, Fraction] = {}
        denominator = _ZERO
        for tau in self.states:
            coeff = mass.get(tau)
            if not coeff:
                continue
            accept = self.accepting(stmt.second, tau)
            if not accept:
                continue
            coeff = coeff * accept
            denominator += coeff
            for out, m in self.transition(stmt.second, tau).mass.items():
                acc = numerator.get(out)
                numerator[out] = coeff * m if acc is None else acc + coeff * m
        if not denominator:
            return _BOTTOM
        return StateDistribution({s: m / denominator for s, m in numerator.items()})

    def accepting(self, stmt: Stmt, state: State) -> Fraction:
        key = (id(stmt), state)
        cached = self._memo_a.get(key)
        if cached is not None:
            return cached
        result = self._accepting(stmt, state)
        self._memo_a[key] = result
        return result

    def _accepting(self, stmt: Stmt, state: State) -> Fraction:
        if isinstance(stmt, (Skip, Assign, Flip)):
            return _ONE
        if isinstance(stmt, Observe):
            return _ONE if _evaluate(stmt.cond, state.values, self.index) else _ZERO
        if isinstance(stmt, If):
            branch = (
                stmt.then_branch
                if _evaluate(stmt.cond, state.values, self.index)
                else stmt.else_branch
            )
            return self.accepting(branch, state)
        if isinstance(stmt, Seq):
            first_accept = self.accepting(stmt.first, state)
            if not first_accept:
                return _ZERO
            mass = self.transition(stmt.first, state).mass
            total = _ZERO
            for tau in self.states:
                coeff = mass.get(tau)
                if not coeff:
                    continue
                total += coeff * self.accepting(stmt.second, tau)
            return first_accept * total
        raise TypeError(f"not a statement: {stmt!r}")


def _body_and_state(
    target: Union[Program, Stmt], state: State
) -> tuple[Stmt, State]:
    if isinstance(target, Program):
        if set(state.vars) != set(target.vars):
            raise ValueError("state domain differs from the program's variables")
        if state.vars != target.vars:
            state = State(target.vars, tuple(state[name] for name in target.vars))
        return target.body, state
    return target, state


def transition(stmt: Union[Program, Stmt], state: State) -> StateDistribution:
    """Exact output distribution of ``stmt`` from ``state`` (or bottom)."""
    body, state = _body_and_state(stmt, state)
    return _Evaluator(state.vars).transition(body, state)


def accepting(stmt: Union[Program, Stmt], state: State) -> Fraction:
    """Probability that no observation fails when running from ``state``."""
    body, state = _body_and_state(stmt, state)
    return _Evaluator(state.vars).accepting(body, state)


def output_marginal(
    program: Program, init: State, query: Expr
) -> Union[Fraction, InfeasibleEvidence]:
    """Probability that ``query`` holds in the output state.

    Returns ``INFEASIBLE`` when every execution path from ``init``
    violates an observation.
    """
    body, init = _body_and_state(program, init)
    evaluator = _Evaluator(init.vars)
    dist = evaluator.transition(body, init)
    if dist.is_bottom:
        return INFEASIBLE
    total = _ZERO
    for state, m in dist.mass.items():
        if _evaluate(query, state.values, evaluator.index):
            total += m
    return total
