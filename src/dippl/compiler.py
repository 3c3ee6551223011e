"""Symbolic compilation of dippl programs to weighted Boolean formulas.

A statement compiles to a BDD ``phi`` over three banks of variables --
unprimed (input state), primed (output state), and per-flip sample
variables -- together with a weight function mapping each flip variable
to ``(theta, 1 - theta)`` and every state variable to ``(1, 1)``.
``phi`` relates input to output states; probability queries against it
are ratios of weighted model counts (see ``dippl.infer``).

Each statement compiles frame-free to a pair ``(rel, mod)``: ``mod`` is
the set of variables the statement may write, and ``rel`` mentions only
unprimed variables, primed variables of ``mod`` and flip variables.
Identity on the variables outside ``mod`` is implied and never built.
Writing ``gamma(S)`` for the frame formula ``AND_{x in S} (x <=> x')``
and ``e`` for the input-bank compilation of an expression:

* ``skip``              -> ``true``, mod {}
* ``x ~ flip(theta)``   -> ``x' <=> f``, mod {x}, fresh ``f`` weighted
  ``(theta, 1 - theta)``
* ``x := e``            -> ``x' <=> e`` (a literal for a constant), mod {x}
* ``observe(e)``        -> ``e``, mod {}
* ``if e {s1} else {s2}`` -> ``ite(e, rel1 & gamma(M - M1),
  rel2 & gamma(M - M2))``, mod ``M = M1 | M2``
* ``s1; s2``            -> with ``Q = M1 & M2``: rename ``rel2``'s
  unprimed variables of ``M1`` to primed and its primed variables of
  ``Q`` to double-primed, conjoin with ``rel1`` while quantifying the
  primed ``Q`` (one ``and_exists``), then rename the double-primed ``Q``
  back to primed; mod ``M1 | M2``.

The relation ``phi`` of a whole statement is ``rel & gamma(V - mod)``,
``V`` all program variables.  It is the relation of the frame-carrying
rules, in which every atom carries its own ``gamma(V - {x})``, but no
sequencing step handles a relation wider than the variables its two
sides touch.

Composition is associative, so a sequence's statements may be grouped
in any way; the grouping sets the cost.  Composing ``s1; s2`` rebuilds
the part of ``rel1`` above ``rel2``'s variables and shares the rest of
``rel2``.  A left fold rebuilds the whole prefix at every step, which is
quadratic on chains.  A right fold rebuilds one statement per step,
which is linear on chains, but it builds every suffix for all values of
the variables it reads, also for values the statements before it can
never produce, so determinism stops making compilation cheaper (4-grid,
seed 11, determinism 0 / 0.5 / 0.9: 839 / 927 / 761 store nodes).
Sequences are therefore composed pairwise, level by level, as a balanced
tree: O(n log n) store nodes on a chain of n statements, and 897 / 672 /
336 on those grids.

The double-primed bank exists only inside sequence composition and never
appears in a finished formula or in the WMC universe.

Variable order: each program variable owns three adjacent positions
(unprimed, primed, double-primed), so the bank shifts used by
sequencing are order-preserving renamings.  Triples of never-flipped
variables come first in order of first appearance; every flip variable
sits immediately before the triple of the variable it samples into,
with these groups ordered by flip label.  This interleaving gives
linear-size diagrams for chain-structured programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from .bdd import Bdd, NodeStore, WeightFn
from .lang import (
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
    UnknownVariable,
    VarRef,
    flips_of,
)
from .oracle import State


def _seq_spine(s: Stmt) -> list[Stmt]:
    """Non-Seq statements of a sequence, in execution order."""
    atoms: list[Stmt] = []
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        else:
            atoms.append(node)
    return atoms


@dataclass(frozen=True)
class VarBanks:
    """Variable-bank bookkeeping for one compiled program.

    ``universe`` (everything except the transient double-primed bank) is
    the variable set every weighted model count ranges over.
    """

    unprimed: Mapping[str, int]
    primed: Mapping[str, int]
    double_primed: Mapping[str, int]
    flip_var: Mapping[int, int]  # flip label -> variable id
    universe: frozenset[int]

    @property
    def flips(self) -> tuple[int, ...]:
        """Flip variable ids in flip-label order."""
        return tuple(self.flip_var[label] for label in sorted(self.flip_var))


def allocate_banks(program: Program, *, op_cache: bool = True) -> tuple[NodeStore, VarBanks]:
    """Create a store whose global order interleaves flips with their targets."""
    # flips grouped by target; groups in order of their first flip label
    flips_by_target: dict[str, list[Flip]] = {}
    for flip in sorted(flips_of(program.body), key=lambda f: f.label):
        flips_by_target.setdefault(flip.target, []).append(flip)

    store = NodeStore(op_cache=op_cache)
    unprimed: dict[str, int] = {}
    primed: dict[str, int] = {}
    double_primed: dict[str, int] = {}
    flip_var: dict[int, int] = {}

    def add_triple(name: str):
        unprimed[name] = store.add_var(name)
        primed[name] = store.add_var(name + "'")
        double_primed[name] = store.add_var(name + "''")

    for name in program.vars:
        if name not in flips_by_target:
            add_triple(name)
    for name, group in flips_by_target.items():
        for flip in group:
            flip_var[flip.label] = store.add_var(f"f{flip.label}")
        add_triple(name)

    universe = frozenset(unprimed.values()) | frozenset(primed.values()) | frozenset(
        flip_var.values()
    )
    banks = VarBanks(unprimed, primed, double_primed, flip_var, universe)
    return store, banks


_BINARY_OPS = {And: "and", Or: "or"}


def compile_expr(e: Expr, banks: VarBanks, store: NodeStore) -> Bdd:
    """Expression as a BDD over the unprimed (input-state) bank.

    Operands are compiled left to right with an explicit stack, since
    operator chains nest as deep as they are long.
    """
    built: list[Bdd] = []
    # an operator's name ("not", "and", "or") sits on the stack below its
    # operands and is applied to the last entries of ``built`` once they
    # are done
    stack: list = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is VarRef:
            var = banks.unprimed.get(node.name)
            if var is None:
                raise UnknownVariable(node.name)
            built.append(store.var(var))
        elif kind is str:
            if node == "not":
                built.append(store.not_(built.pop()))
            else:
                rhs = built.pop()
                built.append(store.apply(node, built.pop(), rhs))
        elif kind is Not:
            stack += ("not", node.inner)
        elif kind is And or kind is Or:
            stack += (_BINARY_OPS[kind], node.rhs, node.lhs)
        elif kind is Const:
            built.append(store.constant(node.value))
        else:
            raise TypeError(f"not an expression: {node!r}")
    return built[0]


def gamma(banks: VarBanks, store: NodeStore, exclude: frozenset[str] = frozenset()) -> Bdd:
    """Frame formula: unprimed equals primed for every non-excluded variable.

    Each variable's (unprimed, primed) pair is adjacent in the global
    order, so the whole conjunction is built in one bottom-up pass.
    """
    return store.iff_cube(
        {
            banks.unprimed[name]: banks.primed[name]
            for name in banks.unprimed
            if name not in exclude
        }
    )


def state_cube(state: State, positions: Mapping[str, int], store: NodeStore) -> Bdd:
    """The conjunction of literals fixing ``state`` on one variable bank."""
    try:
        literals = {positions[name]: value for name, value in zip(state.vars, state.values)}
    except KeyError as exc:
        raise UnknownVariable(str(exc.args[0])) from None
    return store.cube(literals)


_NO_WEIGHTS = WeightFn()


def compile_stmt(stmt: Stmt, banks: VarBanks, store: NodeStore) -> tuple[Bdd, WeightFn]:
    """Compile one statement; returns the relation BDD and its weights.

    The relation is the frame-free ``rel`` of ``stmt`` conjoined once
    with ``gamma`` over the variables ``stmt`` does not write.
    """

    def frame(names) -> Bdd:
        return store.iff_cube({banks.unprimed[x]: banks.primed[x] for x in names})

    def rec(s: Stmt) -> tuple[Bdd, frozenset[str], WeightFn]:
        if isinstance(s, Skip):
            return store.true, frozenset(), _NO_WEIGHTS
        if isinstance(s, Flip):
            f = banks.flip_var[s.label]
            return (
                store.iff_cube({f: banks.primed[s.target]}),
                frozenset((s.target,)),
                WeightFn({f: (s.theta, 1 - s.theta)}),
            )
        if isinstance(s, Assign):
            target = banks.primed[s.target]
            if isinstance(s.rhs, Const):
                rel = store.cube({target: s.rhs.value})
            else:
                rel = store.apply("iff", store.var(target), compile_expr(s.rhs, banks, store))
            return rel, frozenset((s.target,)), _NO_WEIGHTS
        if isinstance(s, Observe):
            return compile_expr(s.cond, banks, store), frozenset(), _NO_WEIGHTS
        if isinstance(s, If):
            cond = compile_expr(s.cond, banks, store)
            rel1, mod1, w1 = rec(s.then_branch)
            rel2, mod2, w2 = rec(s.else_branch)
            mod = mod1 | mod2
            # each branch leaves the variables only the other one writes
            # unchanged
            if mod - mod1:
                rel1 = rel1 & frame(mod - mod1)
            if mod - mod2:
                rel2 = rel2 & frame(mod - mod2)
            return store.ite(cond, rel1, rel2), mod, w1.merged(w2)
        if isinstance(s, Seq):
            # composition is associative; compose neighbours pairwise,
            # level by level (see the module docstring for why)
            parts = [rec(atom) for atom in _seq_spine(s)]
            while len(parts) > 1:
                paired = [
                    _compose(parts[j], parts[j + 1], banks, store)
                    for j in range(0, len(parts) - 1, 2)
                ]
                paired.extend(parts[2 * len(paired):])
                parts = paired
            return parts[0]
        raise TypeError(f"not a statement: {s!r}")

    rel, mod, weights = rec(stmt)
    return rel & gamma(banks, store, exclude=mod), weights


def _compose(
    first: tuple[Bdd, frozenset[str], WeightFn],
    second: tuple[Bdd, frozenset[str], WeightFn],
    banks: VarBanks,
    store: NodeStore,
) -> tuple[Bdd, frozenset[str], WeightFn]:
    """``(rel, mod, weights)`` of ``s1; s2`` from those of ``s1`` and ``s2``.

    ``s2`` reads what ``s1`` writes from the primed bank.  Only the
    variables both write have an intermediate value to quantify; ``s2``'s
    output for them waits on the double-primed bank meanwhile.
    """
    rel1, mod1, w1 = first
    rel2, mod2, w2 = second
    both = mod1 & mod2
    shift = {banks.unprimed[x]: banks.primed[x] for x in mod1}
    shift.update({banks.primed[x]: banks.double_primed[x] for x in both})
    joined = store.and_exists(
        rel1, store.rename(shift, rel2), [banks.primed[x] for x in both]
    )
    rel = store.rename({banks.double_primed[x]: banks.primed[x] for x in both}, joined)
    return rel, mod1 | mod2, w1.merged(w2)


@dataclass(frozen=True)
class CompileStats:
    node_count: int  # internal nodes of the final formula
    store_nodes: int  # nodes the store allocated while compiling, terminals included
    compile_ms: float


@dataclass(frozen=True)
class CompiledProgram:
    """A program's relation BDD, weights, and variable bookkeeping."""

    phi: Bdd
    weights: WeightFn
    banks: VarBanks
    program: Program
    stats: CompileStats
    # the NodeStore.wmc table of scaled int counts shared by this
    # program's queries; see dippl.infer
    exact_counts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def store(self) -> NodeStore:
        return self.phi.store


def compile_program(program: Program, *, op_cache: bool = True) -> CompiledProgram:
    """Allocate variable banks and compile the whole program body."""
    begin = time.perf_counter()
    store, banks = allocate_banks(program, op_cache=op_cache)
    phi, weights = compile_stmt(program.body, banks, store)
    elapsed_ms = (time.perf_counter() - begin) * 1000.0
    stats = CompileStats(
        node_count=store.node_count(phi),
        store_nodes=len(store),
        compile_ms=elapsed_ms,
    )
    return CompiledProgram(phi, weights, banks, program, stats)
