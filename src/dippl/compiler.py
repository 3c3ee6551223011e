"""Symbolic compilation of dippl programs to weighted Boolean formulas.

A statement compiles to a BDD ``phi`` over three banks of variables --
unprimed (input state), primed (output state), and per-flip sample
variables.  ``phi`` relates input to output states; probability queries
against it are ratios of weighted model counts of its cofactors on an
input state (see ``dippl.infer``), so every count ranges over the primed
and flip banks, the WMC universe.  The weights are fixed by the
program's flips, as the variables are, so ``allocate_banks`` builds them
once beside the universe: ``VarBanks.weights`` maps each flip variable
to ``(theta, 1 - theta)`` and every state variable to ``(1, 1)``.  An
expression compiles onto whichever bank it is given: the input bank for
conditions and right-hand sides, the output bank for query events.

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
* ``s1; s2``            -> with ``Q = M1 & M2``: conjoin ``rel1`` with
  ``rel2`` read through a shift of its unprimed variables of ``M1`` to
  primed and its primed variables of ``Q`` to double-primed, while
  quantifying the primed ``Q`` (one ``and_exists``, which never builds
  the shifted copy of ``rel2``), then rename the double-primed ``Q``
  back to primed when ``Q`` is not empty; mod ``M1 | M2``.  The shift
  names only the variables of ``M1`` that ``rel2`` can mention: those
  ``s2``'s expressions read (each part carries that set beside ``mod``)
  and those of ``M2``, whose unprimed copies an ``if`` branch's frame
  reads.

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
never produce, so it gains less from determinism (4-grid, seed 11,
determinism 0 / 0.5 / 0.9: 668 / 527 / 250 store nodes).  A balanced
tree of steps rebuilds every left half once per level: O(n log n) store
nodes on a chain of n statements (7,744 for chain 300), and 810 / 534 /
215 on those grids.  Sequences are therefore folded from both ends, with
the cost of each step measured as it runs: a head grows from the left
and a tail from the right, the side whose last extension allocated
fewer store nodes (``len(store)`` before and after; ties go to the head)
takes the next statement, and the two are joined once they meet.  On a
chain the head's steps soon cost more than the tail's, so the tail does
nearly all the work, and compilation is linear: 11 store nodes per
statement (3,300 for chain 300).  On those grids it allocates 776 / 523
/ 173 store nodes, and the head takes more of the steps as determinism
grows and the prefix gets cheap.  The rule measures only the last step
of each side, and can lose to the balanced tree (grid 8, determinism
0.5, seed 7: 23,651 store nodes against 17,524).

Atoms compile on handles: expressions, literals, flips (``f`` above
``x'``, so ``x' <=> f`` is three nodes built bottom-up), frames and
``if``s are built with the store's node operations (``_mk``, ``_apply``,
``_ite``, ``_iff_chain``), which check nothing and wrap nothing; a
negation is ``_ite(e, 0, 1)``.  The banks' ids are checked once per
``compile_stmt`` instead: the largest must be registered in the store,
or UnknownVar is raised.  Each sequencing join
is one public ``and_exists`` call (and one ``rename`` when both sides
write a variable), which checks its own operands, so a benchmark that
wraps the public methods sees one step per join.

The double-primed bank exists only inside sequence composition and never
appears in a finished formula or in the WMC universe.  The unprimed bank
appears in ``phi`` but not in the universe: queries fix it by
restriction before they count.

Variable order: each program variable owns three adjacent positions
(unprimed, primed, double-primed), so the bank shifts used by
sequencing are order-preserving renamings.  The order follows the
dataflow, placing each written variable where the program computes it
(Fujita, Fujisawa and Kawato, ICCAD 1988).  The triples of the inputs,
the variables no statement writes (``Program.inputs``), come first in
order of first appearance.  Every written variable follows in order of
first appearance, its flip variables in textual order just before its
triple.  Flips are numbered in textual order: the k-th flip gets the
variable ``f{k}``, weighted by its own theta.  This gives linear-size
diagrams for chain-structured programs.  On grids it keeps a variable
that only assignments write (every sample site made deterministic)
beside its parents: ``gen_grid(7, "0.5", seed=7)`` compiles to 3,450
nodes, against 14,049 with every never-flipped variable leading.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping

from .bdd import _OP_AND, _OP_IFF, _OP_OR, Bdd, NodeStore, UnknownVar, WeightFn
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
    seq_atoms,
)
from .oracle import State


@dataclass(frozen=True)
class VarBanks:
    """Variable-bank bookkeeping for one compiled program.

    ``inputs`` holds the unprimed variable ids of every program
    variable, not only of ``Program.inputs``, in the order of
    ``Program.vars`` (the order of a start state's values), and ``flips``
    the flip variable ids in the textual order of the program's flips.
    ``universe`` (the primed and flip banks) is the variable set every
    weighted model count ranges over: counts run on cofactors of ``phi``
    with the unprimed bank fixed, so it is left out, as is the transient
    double-primed bank.  ``weights`` weighs each flip
    variable ``(theta, 1 - theta)`` and every other variable ``(1, 1)``.
    """

    unprimed: Mapping[str, int]
    primed: Mapping[str, int]
    double_primed: Mapping[str, int]
    inputs: tuple[int, ...]
    flips: tuple[int, ...]
    universe: frozenset[int]
    weights: WeightFn


def allocate_banks(program: Program) -> tuple[NodeStore, VarBanks]:
    """Create a store in dataflow order, and the banks with the
    program's weights.

    The triples of ``program.inputs`` lead; every written variable
    follows in order of first appearance, its flips in textual order
    just before its triple.  The names are listed first and the store is
    built on them in one call.
    """
    flips = program.flips
    # textual flip indices grouped by target
    flips_by_target: dict[str, list[int]] = {}
    for k, flip in enumerate(flips):
        flips_by_target.setdefault(flip.target, []).append(k)

    names: list[str] = []
    unprimed: dict[str, int] = {}
    primed: dict[str, int] = {}
    double_primed: dict[str, int] = {}
    flip_ids = [0] * len(flips)

    def add_triple(name: str):
        var = len(names)
        unprimed[name] = var
        primed[name] = var + 1
        double_primed[name] = var + 2
        names.extend((name, name + "'", name + "''"))

    for name in program.inputs:
        add_triple(name)
    for name in program.vars:
        if name not in unprimed:
            for k in flips_by_target.get(name, ()):
                flip_ids[k] = len(names)
                names.append(f"f{k}")
            add_triple(name)
    store = NodeStore(names)

    universe = frozenset(primed.values()) | frozenset(flip_ids)
    # each theta is a Fraction in [0, 1], checked by ``Flip``; equal
    # thetas share one pair, keyed by value, so each distinct theta pays
    # for its ``1 - theta`` once
    pairs: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    entries: dict[int, tuple[Fraction, Fraction]] = {}
    for f, flip in zip(flip_ids, flips):
        theta = flip.theta
        key = theta.as_integer_ratio()
        pair = pairs.get(key)
        if pair is None:
            pair = pairs[key] = (theta, 1 - theta)
        entries[f] = pair
    weights = WeightFn._trusted(entries)
    inputs = tuple(map(unprimed.__getitem__, program.vars))
    banks = VarBanks(unprimed, primed, double_primed, inputs, tuple(flip_ids), universe, weights)
    return store, banks


_BINARY_OPS = {And: _OP_AND, Or: _OP_OR}


def _expr(e: Expr, bank: Mapping[str, int], store: NodeStore, reads: set) -> int:
    """Handle of expression ``e`` over one variable bank (name -> variable
    id), built with the store's own node operations; the caller has
    checked the bank's ids against the store.  The name of every variable
    ``e`` reads goes into ``reads``.

    Operands are compiled left to right with an explicit stack, since
    operator chains nest as deep as they are long.
    """
    mk, apply_, ite = store._mk, store._apply, store._ite
    built: list[int] = []
    # a binary operator's code (``_OP_AND``, ``_OP_OR``), or None for a
    # negation, sits on the stack below its operands and is applied to
    # the last entries of ``built`` once they are done
    stack: list = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is VarRef:
            name = node.name
            var = bank.get(name)
            if var is None:
                raise UnknownVariable(name)
            reads.add(name)
            built.append(mk(var, 0, 1))
        elif kind is int:
            rhs = built.pop()
            built.append(apply_(node, built.pop(), rhs))
        elif node is None:
            built.append(ite(built.pop(), 0, 1))
        elif kind is Not:
            stack += (None, node.inner)
        elif kind is And or kind is Or:
            stack += (_BINARY_OPS[kind], node.rhs, node.lhs)
        elif kind is Const:
            built.append(1 if node.value else 0)
        else:
            raise TypeError(f"not an expression: {node!r}")
    return built[0]


def compile_expr(e: Expr, bank: Mapping[str, int], store: NodeStore) -> Bdd:
    """Expression as a BDD over one variable bank (name -> variable id)
    of ``store``, e.g. ``banks.unprimed`` for the input state."""
    return store._wrap(_expr(e, bank, store, set()))


def _frame(banks: VarBanks, store: NodeStore, names: Iterable[str]) -> int:
    """Handle of the frame formula: unprimed equals primed for every
    variable of ``names``.

    Each variable's (unprimed, primed) pair is adjacent in the global
    order, so the store builds the whole conjunction bottom-up in one
    pass (``_iff_chain``, as for ``iff_cube``).
    """
    unprimed, primed = banks.unprimed, banks.primed
    return store._iff_chain(sorted([(unprimed[x], primed[x]) for x in names]))


def gamma(banks: VarBanks, store: NodeStore, exclude: AbstractSet[str] = frozenset()) -> Bdd:
    """Frame formula over every program variable not in ``exclude``."""
    return store._wrap(_frame(banks, store, (x for x in banks.unprimed if x not in exclude)))


def state_cube(state: State, positions: Mapping[str, int], store: NodeStore) -> Bdd:
    """The conjunction of literals fixing ``state`` on one variable bank."""
    try:
        literals = {positions[name]: value for name, value in zip(state.vars, state.values)}
    except KeyError as exc:
        raise UnknownVariable(str(exc.args[0])) from None
    return store.cube(literals)


# a statement's part of a sequence: its relation's handle, the variables
# it may write (``mod``) and those its expressions read
_Part = tuple[int, set, set]


def compile_stmt(stmt: Stmt, banks: VarBanks, store: NodeStore) -> Bdd:
    """Compile one statement to its relation BDD.

    The relation is the frame-free ``rel`` of ``stmt`` conjoined once
    with ``gamma`` over the variables ``stmt`` does not write.  ``stmt``
    must have the flips ``banks`` was allocated for (its program's
    ``Program.flips``); a ValueError reports a mismatch.  A statement
    that reads or writes a variable outside the banks raises
    UnknownVariable, and banks with an id the store has not registered
    raise UnknownVar before anything is built.
    """
    top = max(
        max(banks.unprimed.values(), default=-1),
        max(banks.primed.values(), default=-1),
        max(banks.double_primed.values(), default=-1),
        max(banks.flips, default=-1),
    )
    if top >= store.num_vars:
        raise UnknownVar(f"variable id {top!r} is not registered")
    unprimed, primed = banks.unprimed, banks.primed
    mk, apply_ = store._mk, store._apply
    # ``rec`` visits a then branch before its else branch and a
    # sequence's atoms in order, so it meets the flips in textual order,
    # the order of ``Program.flips`` and so of ``banks.flips``
    flip_ids = iter(banks.flips)

    def rec(s: Stmt) -> _Part:
        if isinstance(s, Skip):
            return 1, set(), set()
        if isinstance(s, (Assign, Flip)):
            target = primed.get(s.target)
            if target is None:
                raise UnknownVariable(s.target)
            if isinstance(s, Flip):
                f = next(flip_ids, None)
                if f is None:
                    raise ValueError("statement has more flips than its variable banks")
                # ``allocate_banks`` puts each flip above its target
                return mk(f, mk(target, 1, 0), mk(target, 0, 1)), {s.target}, set()
            rhs, reads = s.rhs, set()
            if isinstance(rhs, Const):
                rel = mk(target, 0, 1) if rhs.value else mk(target, 1, 0)
            else:
                value = _expr(rhs, unprimed, store, reads)
                rel = apply_(_OP_IFF, mk(target, 0, 1), value)
            return rel, {s.target}, reads
        if isinstance(s, Observe):
            reads = set()
            return _expr(s.cond, unprimed, store, reads), set(), reads
        if isinstance(s, If):
            reads = set()
            cond = _expr(s.cond, unprimed, store, reads)
            rel1, mod1, reads1 = rec(s.then_branch)
            rel2, mod2, reads2 = rec(s.else_branch)
            mod = mod1 | mod2
            # each branch leaves the variables only the other one writes
            # unchanged; those frames read unprimed variables of ``mod``
            if len(mod1) < len(mod):
                rel1 = apply_(_OP_AND, rel1, _frame(banks, store, mod - mod1))
            if len(mod2) < len(mod):
                rel2 = apply_(_OP_AND, rel2, _frame(banks, store, mod - mod2))
            reads |= reads1
            reads |= reads2
            return store._ite(cond, rel1, rel2), mod, reads
        if isinstance(s, Seq):
            # composition is associative; fold from both ends, extending
            # the side whose last step allocated fewer store nodes (see
            # the module docstring for why)
            parts = [rec(atom) for atom in seq_atoms(s)]
            head, tail = parts[0], parts[-1]
            head_cost = tail_cost = 0
            i, j = 1, len(parts) - 2
            while i <= j:
                before = len(store)
                if head_cost <= tail_cost:
                    head = _compose(head, parts[i], banks, store)
                    head_cost = len(store) - before
                    i += 1
                else:
                    tail = _compose(parts[j], tail, banks, store)
                    tail_cost = len(store) - before
                    j -= 1
            return _compose(head, tail, banks, store) if len(parts) > 1 else head
        raise TypeError(f"not a statement: {s!r}")

    rel, mod, _ = rec(stmt)
    if next(flip_ids, None) is not None:
        raise ValueError("statement has fewer flips than its variable banks")
    return store._wrap(apply_(_OP_AND, rel, gamma(banks, store, exclude=mod).idx))


def _compose(first: _Part, second: _Part, banks: VarBanks, store: NodeStore) -> _Part:
    """The part of ``s1; s2`` from those of ``s1`` and ``s2``.

    ``s2`` reads what ``s1`` writes from the primed bank.  Only the
    variables of ``mod1`` that ``rel2`` can mention are shifted: those
    ``s2`` reads, and those it writes (an ``if`` branch's frame reads
    them).  Only the variables both write have an intermediate value to
    quantify; ``s2``'s output for them waits on the double-primed bank
    meanwhile.  The join is one public ``and_exists``, and one public
    ``rename`` when both write a variable.  The larger of each pair of
    sets is updated in place and returned, so neither argument may be
    used again.
    """
    rel1, mod1, reads1 = first
    rel2, mod2, reads2 = second
    unprimed, primed, double_primed = banks.unprimed, banks.primed, banks.double_primed
    both = mod1 & mod2
    shift = {unprimed[x]: primed[x] for x in mod1 & reads2}
    for x in both:
        shift[unprimed[x]] = primed[x]
        shift[primed[x]] = double_primed[x]
    wrap = store._wrap
    rel = store.and_exists(wrap(rel1), wrap(rel2), [primed[x] for x in both], shift=shift)
    if both:
        rel = store.rename({double_primed[x]: primed[x] for x in both}, rel)
    # the smaller set joins the larger in place: a one-sided fold would
    # copy its long side at every step
    if len(mod1) < len(mod2):
        mod1, mod2 = mod2, mod1
    mod1 |= mod2
    if len(reads1) < len(reads2):
        reads1, reads2 = reads2, reads1
    reads1 |= reads2
    return rel.idx, mod1, reads1


@dataclass(frozen=True)
class CompileStats:
    node_count: int  # internal nodes of the final formula
    store_nodes: int  # nodes the store allocated while compiling, terminals included
    compile_ms: float


@dataclass(frozen=True)
class CompiledProgram:
    """A program's relation BDD and variable bookkeeping (weights
    included, see ``VarBanks``).  ``reads`` holds the positions in
    ``program.vars`` (and ``banks.inputs``) of the input variables
    ``phi`` reads, in that order, and ``read_ids`` their unprimed
    variable ids; a query fixes those alone."""

    phi: Bdd
    banks: VarBanks
    program: Program
    stats: CompileStats
    reads: tuple[int, ...]
    read_ids: tuple[int, ...]

    @property
    def store(self) -> NodeStore:
        return self.phi.store


def compile_program(program: Program) -> CompiledProgram:
    """Allocate variable banks and compile the whole program body."""
    begin = time.perf_counter()
    store, banks = allocate_banks(program)
    phi = compile_stmt(program.body, banks, store)
    elapsed_ms = (time.perf_counter() - begin) * 1000.0
    # one walk gives the size of ``phi`` and the inputs it reads
    nodes = store._nodes(phi.idx)
    var_of = store._var
    support = {var_of[u] for u in nodes}
    reads = tuple([i for i, var in enumerate(banks.inputs) if var in support])
    read_ids = tuple([banks.inputs[i] for i in reads])
    stats = CompileStats(node_count=len(nodes), store_nodes=len(store), compile_ms=elapsed_ms)
    return CompiledProgram(phi, banks, program, stats, reads, read_ids)
