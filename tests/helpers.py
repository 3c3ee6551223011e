"""Shared test machinery: independent oracles and random generators.

Nothing here reuses the code paths under test:

* ``brute_force_wmc`` enumerates every total assignment to the universe
  and follows the diagram by hand -- the ground truth for the smoothed
  one-pass model counter.
* ``run_paths`` executes a statement by enumerating every flip outcome
  (rejection semantics); aggregating paths gives acceptance masses,
  transition tables, and marginals to pin the denotational interpreter
  against.
* ``reference_wmc`` is the model counter in ``Fraction`` arithmetic that
  the integer pass of ``NodeStore.wmc`` replaced, for diagrams too wide
  to enumerate.
* ``random_program`` builds seeded random ASTs for differential suites.
* ``reference_compile`` compiles by the frame-carrying rules, in which
  every atom carries the frame of all the variables it does not write.
* ``run_fresh`` runs Python in a fresh interpreter, for the walks that
  must not depend on a raised recursion limit.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import dippl
from dippl.bdd import Bdd, NodeStore, WeightFn
from dippl.lang import (
    And,
    Assign,
    Const,
    Expr,
    Flip,
    If,
    Not,
    Observe,
    Or,
    Program,
    Seq,
    Skip,
    Stmt,
    VarRef,
)

# ---------------------------------------------------------------------------
# BDD-side oracles
# ---------------------------------------------------------------------------


def follow(bdd: Bdd, assignment: dict[int, bool]) -> bool:
    """Evaluate a diagram by explicit descent (no library help)."""
    node = bdd
    while not node.is_terminal:
        node = node.high if assignment[node.var] else node.low
    return node.is_true


def truth_table(bdd: Bdd, variables: list[int]) -> tuple[bool, ...]:
    rows = []
    for bits in itertools.product((False, True), repeat=len(variables)):
        rows.append(follow(bdd, dict(zip(variables, bits))))
    return tuple(rows)


def brute_force_wmc(bdd: Bdd, weights: WeightFn, universe) -> Fraction:
    """Sum of per-literal weight products over satisfying total assignments."""
    universe = sorted(universe)
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(universe)):
        assignment = dict(zip(universe, bits))
        if not follow(bdd, assignment):
            continue
        product = Fraction(1)
        for var, bit in assignment.items():
            wt, wf = weights.weight(var)
            product *= wt if bit else wf
        total += product
    return total


def reference_wmc(bdd: Bdd, weights: WeightFn, universe) -> Fraction:
    """Weighted model count in ``Fraction`` arithmetic: one memoized
    bottom-up pass in which an edge that skips universe levels multiplies
    by their smoothing factors (weight-true + weight-false), taken as a
    ratio of prefix products; a skipped factor of 0 zeroes the edge."""
    uni = sorted(set(universe))
    position = {var: i for i, var in enumerate(uni)}
    prefix, zeros = [Fraction(1)], [0]
    for var in uni:
        wt, wf = weights.weight(var)
        factor = wt + wf
        prefix.append(prefix[-1] * factor if factor else prefix[-1])
        zeros.append(zeros[-1] + (factor == 0))
    memo: dict[int, Fraction] = {}

    def edge(node: Bdd, i: int) -> Fraction:
        if node.is_false:
            return Fraction(0)
        j = len(uni) if node.is_true else position[node.var]
        if zeros[i] != zeros[j]:
            return Fraction(0)
        return prefix[j] / prefix[i] * count(node)

    def count(node: Bdd) -> Fraction:
        if node.is_true:
            return Fraction(1)
        if node.idx not in memo:
            wt, wf = weights.weight(node.var)
            k = position[node.var]
            memo[node.idx] = wt * edge(node.high, k + 1) + wf * edge(node.low, k + 1)
        return memo[node.idx]

    return edge(bdd, 0)


def xor(a: Bdd, b: Bdd) -> Bdd:
    """``a`` xor ``b``, as ``ite(a, not b, b)``."""
    store = a.store
    return store.ite(a, store.not_(b), b)


def random_bdd(rng: random.Random, store: NodeStore, variables, size: int = 12) -> Bdd:
    """A random function built from random combinator applications."""
    pool = [store.var(v) for v in variables] + [store.true, store.false]
    for _ in range(size):
        op = rng.choice(("and", "or", "xor", "iff", "implies", "not"))
        if op == "not":
            pool.append(store.not_(rng.choice(pool)))
            continue
        a, b = rng.choice(pool), rng.choice(pool)
        if op == "xor":
            pool.append(xor(a, b))
        elif op == "implies":
            pool.append(store.ite(a, b, store.true))
        else:
            pool.append(store.apply(op, a, b))
    return pool[-1]


def shape(bdd: Bdd):
    """Diagram structure with variables replaced by their support rank.

    Two diagrams have equal shapes exactly when they are isomorphic
    modulo an order-preserving renaming of their support.
    """
    store = bdd.store
    rank = {v: i for i, v in enumerate(sorted(store.support(bdd)))}
    memo: dict[int, tuple] = {}

    def rec(node: Bdd):
        if node.is_terminal:
            return node.is_true
        if node.idx not in memo:
            memo[node.idx] = (rank[node.var], rec(node.low), rec(node.high))
        return memo[node.idx]

    return rec(bdd)


# ---------------------------------------------------------------------------
# Path-enumeration semantics (independent of the interpreter under test)
# ---------------------------------------------------------------------------


def eval_in(e: Expr, env: dict[str, bool]) -> bool:
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Not):
        return not eval_in(e.inner, env)
    if isinstance(e, And):
        return eval_in(e.lhs, env) and eval_in(e.rhs, env)
    return eval_in(e.lhs, env) or eval_in(e.rhs, env)


def run_paths(stmt: Stmt, env: dict[str, bool]):
    """All execution paths as (probability, final env, accepted) triples."""
    if isinstance(stmt, Skip):
        return [(Fraction(1), env, True)]
    if isinstance(stmt, Assign):
        return [(Fraction(1), {**env, stmt.target: eval_in(stmt.rhs, env)}, True)]
    if isinstance(stmt, Flip):
        return [
            (stmt.theta, {**env, stmt.target: True}, True),
            (1 - stmt.theta, {**env, stmt.target: False}, True),
        ]
    if isinstance(stmt, Observe):
        return [(Fraction(1), env, eval_in(stmt.cond, env))]
    if isinstance(stmt, If):
        branch = stmt.then_branch if eval_in(stmt.cond, env) else stmt.else_branch
        return run_paths(branch, env)
    paths = []
    for p1, mid, ok in run_paths(stmt.first, env):
        if not ok:
            paths.append((p1, mid, False))
            continue
        for p2, out, ok2 in run_paths(stmt.second, mid):
            paths.append((p1 * p2, out, ok2))
    return paths


def path_accepting(stmt: Stmt, env: dict[str, bool]) -> Fraction:
    return sum((p for p, _, ok in run_paths(stmt, env) if ok), Fraction(0))


def path_transition(stmt: Stmt, env: dict[str, bool]):
    """Normalized accepted-path mass per final environment; None if all reject."""
    masses: dict[tuple, Fraction] = {}
    accepted = Fraction(0)
    for p, out, ok in run_paths(stmt, env):
        if not ok or p == 0:
            continue
        accepted += p
        key = tuple(sorted(out.items()))
        masses[key] = masses.get(key, Fraction(0)) + p
    if accepted == 0:
        return None
    return {key: mass / accepted for key, mass in masses.items()}


def path_marginal(program: Program, env: dict[str, bool], query: Expr):
    table = path_transition(program.body, env)
    if table is None:
        return None
    return sum(
        (mass for key, mass in table.items() if eval_in(query, dict(key))),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------


def random_expr(rng: random.Random, names, depth: int = 2) -> Expr:
    if not names or depth == 0 or rng.random() < 0.3:
        if names and rng.random() < 0.75:
            return VarRef(rng.choice(names))
        return Const(rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.4:
        return And(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if roll < 0.8:
        return Or(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    return Not(random_expr(rng, names, depth - 1))


_THETAS = [Fraction(n, 10) for n in range(11)] + [Fraction(1, 3), Fraction(2, 7)]


def _random_atom(rng, names, flips_left, depth, observe_p):
    if rng.random() < observe_p:
        return Observe(random_expr(rng, names)), 0
    roll = rng.random()
    if roll < 0.12:
        return Skip(), 0
    if roll < 0.5 or flips_left <= 0:
        return Assign(rng.choice(names), random_expr(rng, names)), 0
    if roll < 0.78 and depth > 0:
        first, used1 = _random_block(
            rng, names, flips_left, depth - 1, observe_p, rng.randint(1, 2)
        )
        second, used2 = _random_block(
            rng, names, flips_left - used1, depth - 1, observe_p, rng.randint(1, 2)
        )
        return If(random_expr(rng, names), first, second), used1 + used2
    return Flip(rng.choice(names), rng.choice(_THETAS)), 1


def _random_block(rng, names, flips_left, depth, observe_p, length):
    atoms, used = [], 0
    for _ in range(length):
        atom, flip_count = _random_atom(rng, names, flips_left - used, depth, observe_p)
        atoms.append(atom)
        used += flip_count
    stmt = atoms[-1]
    for atom in reversed(atoms[:-1]):
        stmt = Seq(atom, stmt)
    return stmt, used


def random_program(
    rng: random.Random,
    max_vars: int = 8,
    max_flips: int = 10,
    depth: int = 5,
    observe_p: float = 0.2,
    length: int | None = None,
) -> Program:
    """A random program within the differential-suite bounds; its top
    level is a sequence of ``length`` statements (2 to 4 when missing)."""
    names = [f"v{i}" for i in range(rng.randint(2, max_vars))]
    body, _ = _random_block(
        rng, names, max_flips, depth, observe_p, length or rng.randint(2, 4)
    )
    return Program(body)


# ---------------------------------------------------------------------------
# Reference compiler: the frame-carrying rules
# ---------------------------------------------------------------------------


def reference_compile(stmt: Stmt, banks, store: NodeStore) -> tuple[Bdd, WeightFn]:
    """``stmt``'s relation and weights by the frame-carrying rules.

    With ``gamma(S)`` the frame ``AND_{x in S} (x <=> x')`` over all
    program variables ``V``: ``skip`` is ``gamma(V)``, ``x ~ flip`` is
    ``(x' <=> f) & gamma(V - {x})``, ``x := e`` is ``(x' <=> e) &
    gamma(V - {x})``, ``observe(e)`` is ``e & gamma(V)`` and ``if`` is an
    ``ite`` of the branches.  A sequence folds left: each step moves the
    next statement's relation onto the primed and double-primed banks,
    conjoins it while quantifying every primed variable, and moves the
    double-primed bank back.  Diagrams are canonical, so a correct
    compiler gives the same handles in the same store.
    """
    frame = {banks.unprimed[x]: banks.primed[x] for x in banks.unprimed}
    shift = dict(frame)
    shift.update({banks.primed[x]: banks.double_primed[x] for x in banks.primed})
    unshift = {banks.double_primed[x]: banks.primed[x] for x in banks.primed}
    primed = list(banks.primed.values())
    weights: dict[int, tuple[Fraction, Fraction]] = {}
    # ``rec`` meets the flips in textual order, the order of ``banks.flips``
    flip_ids = iter(banks.flips)

    def frame_without(name: str) -> dict[int, int]:
        pairs = dict(frame)
        del pairs[banks.unprimed[name]]
        return pairs

    def expr(e: Expr) -> Bdd:
        if isinstance(e, VarRef):
            return store.var(banks.unprimed[e.name])
        if isinstance(e, Const):
            return store.constant(e.value)
        if isinstance(e, Not):
            return store.not_(expr(e.inner))
        return store.apply("and" if isinstance(e, And) else "or", expr(e.lhs), expr(e.rhs))

    def rec(s: Stmt) -> Bdd:
        if isinstance(s, Skip):
            return store.iff_cube(frame)
        if isinstance(s, Flip):
            f = next(flip_ids)
            weights[f] = (s.theta, 1 - s.theta)
            return store.iff_cube({f: banks.primed[s.target]}) & store.iff_cube(
                frame_without(s.target)
            )
        if isinstance(s, Assign):
            target = store.var(banks.primed[s.target])
            return store.apply("iff", target, expr(s.rhs)) & store.iff_cube(
                frame_without(s.target)
            )
        if isinstance(s, Observe):
            return expr(s.cond) & store.iff_cube(frame)
        if isinstance(s, If):
            return store.ite(expr(s.cond), rec(s.then_branch), rec(s.else_branch))
        atoms, rest = [], s
        while isinstance(rest, Seq):
            atoms.append(rest.first)
            rest = rest.second
        atoms.append(rest)
        phi = rec(atoms[0])
        for atom in atoms[1:]:
            joined = store.and_exists(phi, store.rename(shift, rec(atom)), primed)
            phi = store.rename(unshift, joined)
        return phi

    phi = rec(stmt)
    return phi, WeightFn(weights)


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, which has the default
    recursion limit, importing the dippl under test."""
    src = os.path.dirname(os.path.dirname(dippl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


# ---------------------------------------------------------------------------
# Minimal DOT well-formedness checker
# ---------------------------------------------------------------------------


def check_dot(text: str):
    """Parse the digraph subset: fails loudly on malformed output."""
    import re

    token_re = re.compile(
        r'\s+|(?P<sym>->|[{}\[\];=,])|(?P<id>[A-Za-z_][A-Za-z0-9_]*|\d+|"(?:[^"\\]|\\.)*")'
    )
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise AssertionError(f"bad DOT character at offset {pos}: {text[pos]!r}")
        if m.lastgroup:
            tokens.append(m.group())
        pos = m.end()
    tokens.append("<eof>")

    cursor = [0]

    def peek():
        return tokens[cursor[0]]

    def take(expected=None):
        tok = tokens[cursor[0]]
        if expected is not None and tok != expected:
            raise AssertionError(f"DOT: expected {expected!r}, found {tok!r}")
        cursor[0] += 1
        return tok

    def is_id(tok):
        return tok not in ("{", "}", "[", "]", ";", "=", ",", "->", "<eof>")

    def attr_list():
        take("[")
        while peek() != "]":
            if not is_id(take()):
                raise AssertionError("DOT: attribute name expected")
            take("=")
            if not is_id(take()):
                raise AssertionError("DOT: attribute value expected")
            if peek() == ",":
                take(",")
        take("]")

    take("digraph")
    if is_id(peek()):
        take()
    take("{")
    while peek() != "}":
        head = take()
        if not is_id(head):
            raise AssertionError(f"DOT: node id expected, found {head!r}")
        if peek() == "=":  # graph attribute like ordering="out"
            take("=")
            if not is_id(take()):
                raise AssertionError("DOT: attribute value expected")
        elif peek() == "->":
            take("->")
            if not is_id(take()):
                raise AssertionError("DOT: edge target expected")
            if peek() == "[":
                attr_list()
        elif peek() == "[":
            attr_list()
        take(";")
    take("}")
    take("<eof>")
