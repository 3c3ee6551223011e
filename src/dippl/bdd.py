"""Reduced ordered binary decision diagrams with weighted model counting.

A ``NodeStore`` owns a fixed global variable order (variables are dense
integer ids; smaller id = closer to the root), a hash-consing unique
table, and an operation cache.  Nodes are reduced on construction, so
two functions over one store are equal exactly when their handles are
equal.

Boolean combinators (``apply``, ``not_``, ``ite``) run on two walks:
the if-then-else walk ``_ite``, which gives negation as ``ite(a, 0, 1)``
and any other operator as one call (Brace, Rudell and Bryant, DAC 1990),
and ``_apply``, which keeps the three symmetric operators the compiler
and the quantifiers combine with: AND, OR and IFF.  The relational
product ``and_exists`` (conjoin, then
quantify, reading the second operand through an order-preserving shift
instead of a renamed copy), and existential quantification, renaming and
restriction (``restrict``: the cofactor on an assignment), which are
runs of that one walk under its one order contract, are provided, plus
``wmc``: a single memoized bottom-up pass computing the weighted model
count over an explicit variable universe.  The pass is a loop, not a
recursion: it counts the nodes the table lacks in ascending handle
order, children first.  A variable of the universe skipped along a path
contributes its smoothing factor (weight-true + weight-false), and a
universe variable weighing ``(0, 0)`` makes every count 0 without a
pass.
``wmc`` also counts a diagram conjoined with an event; when the event is
a single literal, one top-down pass over the counted diagram gives the
count with every literal of the literal's weight class at once (the
differential approach), and no conjunction is built.  The classes are
the variables that weigh exactly ``(1, 1)`` and the weighted ones.  A
pass multiplies wide counts only where its own class needs them, so a
``(1, 1)`` literal, such as the output-state literal of a marginal, does
not pay for the weighted (flip) levels.

Weights are exact rationals, and counts are exact.  ``wmc`` scales each
variable's weight pair to ints by the lcm of its denominators and counts
on Python ints, so a pass does no ``Fraction`` arithmetic and no float
arithmetic; the product of the scales is divided out once, at the end,
and a count without an event is kept as that ``Fraction``, so asking it
again divides nothing.

A store is a single-writer structure: calls on one store must be
externally serialized, but distinct stores are fully independent.
The relational-product walk uses a per-call memo table;
``restrict`` keeps its result in the operation cache, keyed by the root
and the assignment by value, so a repeated restriction is one lookup.
Weighted counting is owned by the store: the count layout of a weight
function and universe (positions, scaled weights, weight classes, prefix
products), the table of scaled node counts computed under them, the
exact count of each root counted without an event and the literal
counts of each root and class the top-down pass has run on live in the
operation cache, keyed by the two by value, so every caller that
counts with equal weights over an equal universe shares one layout and
its tables, and ``clear_op_cache`` frees them with the rest of the
cache.  The store also keeps the last weight function and universe
asked with their layout, so a caller that passes the same two objects
again gets the layout without a key to build or hash.  ``wmc`` alone
decides what the table holds: a pass over a whole diagram writes its
nodes, and a pass over a conjunction with an event never does.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

_OP_AND, _OP_OR, _OP_IFF, _OP_ITE, _OP_WMC, _OP_RESTRICT = range(6)

_OP_CODES = {"and": _OP_AND, "or": _OP_OR, "iff": _OP_IFF}

# terminals sort below every real variable
_TERMINAL_VAR = sys.maxsize

Weight = Union[Fraction, int]


class ManagerMismatch(Exception):
    """Operands belong to different NodeStores."""


class UnknownVar(Exception):
    """Variable id is not registered in the store."""


class OrderViolation(Exception):
    """A renaming (``and_exists``'s shift, or ``rename``) puts a node's
    image at or below the image of one of its children's variables."""


class SupportOutsideUniverse(Exception):
    """wmc was asked to count over a universe missing support variables."""


# the weights of every unlisted variable, shared
_UNIT_WEIGHTS = (Fraction(1), Fraction(1))


class WeightFn:
    """Per-variable literal weights: id -> (weight-true, weight-false).

    Unlisted variables weigh (1, 1).  Weights must be nonnegative exact
    rationals (floats are rejected to keep model counts exact).

    Equal weight functions hash equal, so they can key a store's count
    layout by value.  The hash covers the listed variable ids only:
    hashing every ``Fraction`` would cost far more than the ids.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[int, tuple[Weight, Weight]] = ()):
        store: dict[int, tuple[Fraction, Fraction]] = {}
        for var, (wt, wf) in dict(entries).items():
            store[var] = (self._coerce(wt), self._coerce(wf))
        self._entries = store
        self._hash = hash(frozenset(store))

    @classmethod
    def _trusted(cls, entries: dict[int, tuple[Fraction, Fraction]]) -> "WeightFn":
        """A weight function that takes ``entries`` as given: pairs of
        nonnegative ``Fraction``s already validated by the caller (the
        compiler's flips, whose thetas ``Flip`` checked), so no weight is
        coerced or checked again."""
        fn = cls.__new__(cls)
        fn._entries = entries
        fn._hash = hash(frozenset(entries))
        return fn

    @staticmethod
    def _coerce(w: Weight) -> Fraction:
        if isinstance(w, float):
            raise TypeError("weights must be exact rationals, not floats")
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w}")
        return w

    def weight(self, var: int) -> tuple[Fraction, Fraction]:
        return self._entries.get(var, _UNIT_WEIGHTS)

    def items(self):
        return self._entries.items()

    def __eq__(self, other):
        return isinstance(other, WeightFn) and self._entries == other._entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeightFn({self._entries!r})"


class _NoCache(dict):
    """An operation cache that never keeps an entry: the uncached
    reference store of ``NodeStore(op_cache=False)``."""

    __slots__ = ()

    def __setitem__(self, key, value):
        pass


# ``NodeStore._last_layout`` before any layout is kept
_NO_LAYOUT = (None, None, None)


class _CountLayout:
    """What ``NodeStore.wmc`` needs to count under one weight function
    and universe.

    ``position`` maps each universe variable to its index in the sorted
    universe; ``wt``/``wf`` are the scaled int weights by index,
    ``factor`` their sums (the smoothing factors) and ``scale`` the
    product of the scales.  ``prefix`` holds the prefix products of the
    smoothing factors, so any interval product is one division; its last
    entry is 0 exactly when a universe variable weighs ``(0, 0)``, and
    then every count is 0 and ``NodeStore.wmc`` runs no pass.  ``unit``
    gives each position's weight class: True where the variable weighs
    exactly ``(1, 1)`` (every primed variable of a compiled program),
    False where it is weighted (every flip, ``(1/2, 1/2)`` included).
    ``table`` maps the nodes of the diagrams counted whole to their
    scaled counts, ``exact`` maps each root that ``wmc`` counted without
    an event to the ``Fraction`` it returned, so a repeat of that call is
    one lookup, and ``literals`` maps the roots of literal events to one
    slot per class, ``[weighted, unit]``, each None until a literal of
    that class is asked (see ``NodeStore._literal_counts``).

    The layout is built in one pass over the weight function's entries:
    every other universe variable weighs ``(1, 1)``, which scales by 1,
    sums to 2 and is of the unit class, so its position keeps the
    defaults.
    """

    __slots__ = (
        "position", "size", "wt", "wf", "factor", "prefix", "scale", "unit",
        "table", "exact", "literals",
    )

    def __init__(self, weights: WeightFn, universe: frozenset[int]):
        uni = sorted(universe)
        size = self.size = len(uni)
        position = self.position = dict(zip(uni, range(size)))
        # every universe variable weighs (1, 1) but the weighted entries
        wt, wf, factor, unit = [1] * size, [1] * size, [2] * size, [True] * size
        scale = 1
        for var, (t, f) in weights.items():
            k = position.get(var)
            if k is not None:
                (t, td), (f, fd) = t.as_integer_ratio(), f.as_integer_ratio()
                s = lcm(td, fd)
                t, f = t * (s // td), f * (s // fd)
                wt[k], wf[k], factor[k] = t, f, t + f
                # (1, 1) exactly scales by 1 to (1, 1)
                unit[k] = t == f == s == 1
                scale *= s
        self.wt, self.wf, self.factor, self.unit, self.scale = wt, wf, factor, unit, scale
        self.prefix = list(accumulate(factor, mul, initial=1))
        self.table: dict[int, int] = {0: 0, 1: 1}
        self.exact: dict[int, Fraction] = {}
        self.literals: dict[int, list[Optional[list[int]]]] = {}


class Bdd:
    """Handle to a node of one store; equality is handle equality."""

    __slots__ = ("store", "idx")

    def __init__(self, store: "NodeStore", idx: int):
        self.store = store
        self.idx = idx

    def __eq__(self, other):
        return (
            isinstance(other, Bdd)
            and self.store is other.store
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((id(self.store), self.idx))

    def __repr__(self):
        if self.idx == 0:
            return "Bdd(false)"
        if self.idx == 1:
            return "Bdd(true)"
        return f"Bdd(#{self.idx})"

    @property
    def is_false(self) -> bool:
        return self.idx == 0

    @property
    def is_true(self) -> bool:
        return self.idx == 1

    @property
    def is_terminal(self) -> bool:
        return self.idx <= 1

    @property
    def var(self) -> int:
        if self.idx <= 1:
            raise ValueError("terminal nodes have no variable")
        return self.store._var[self.idx]

    @property
    def low(self) -> "Bdd":
        if self.idx <= 1:
            raise ValueError("terminal nodes have no children")
        return Bdd(self.store, self.store._lo[self.idx])

    @property
    def high(self) -> "Bdd":
        if self.idx <= 1:
            raise ValueError("terminal nodes have no children")
        return Bdd(self.store, self.store._hi[self.idx])

    def __and__(self, other: "Bdd") -> "Bdd":
        return self.store.apply("and", self, other)

    def __or__(self, other: "Bdd") -> "Bdd":
        return self.store.apply("or", self, other)

    def __invert__(self) -> "Bdd":
        return self.store.not_(self)


class NodeStore:
    """Shared node table for one family of BDDs."""

    def __init__(self, names: Iterable[str] = (), *, op_cache: bool = True):
        """A store whose variables are ``names``, in order (ids 0, 1, ...).

        The recursive walks, ``_ite``, ``_apply`` and ``_walk`` (behind
        ``and_exists``, ``exists``, ``rename`` and ``restrict``), descend
        one frame per variable level, so the recursion limit is raised to
        at least ``3000 + 8 * len(names)``.  Counting does not recurse.
        """
        # handles 0/1 are the False/True terminals
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict = {} if op_cache else _NoCache()
        # ``(weights, universe, layout)`` of the last count layout asked
        self._last_layout: tuple = _NO_LAYOUT
        self._names: list[str] = list(names)
        limit = 3000 + 8 * len(self._names)
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)

    # -- variables ----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def var_name(self, var: int) -> str:
        self._check_var(var)
        return self._names[var]

    def _check_var(self, var: int):
        if not isinstance(var, int) or not 0 <= var < len(self._names):
            raise UnknownVar(f"variable id {var!r} is not registered")

    def _check_vars(self, ids: Collection[int]):
        """``_check_var`` on every id of ``ids``, done in one pass (all
        ints, the smallest >= 0, the largest registered); only a bad id
        is looked for one by one, to report it."""
        if ids and not (
            all(map(int.__instancecheck__, ids))
            and 0 <= min(ids)
            and max(ids) < len(self._names)
        ):
            for var in ids:
                self._check_var(var)

    def __len__(self) -> int:
        """Total allocated nodes, terminals included (monotone; no GC)."""
        return len(self._var)

    def clear_op_cache(self):
        """Drop every cached result, ``wmc``'s count layouts with their
        tables and kept counts included; handles and the nodes behind
        them stay valid."""
        self._cache.clear()
        self._last_layout = _NO_LAYOUT

    # -- node construction ---------------------------------------------------

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        idx = self._unique.get(key)
        if idx is None:
            idx = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = idx
        return idx

    def _wrap(self, idx: int) -> Bdd:
        return Bdd(self, idx)

    def _own(self, b: Bdd) -> int:
        if not isinstance(b, Bdd):
            raise TypeError(f"expected a Bdd, got {type(b).__name__}")
        if b.store is not self:
            raise ManagerMismatch("operands come from different stores")
        return b.idx

    @property
    def false(self) -> Bdd:
        return self._wrap(0)

    @property
    def true(self) -> Bdd:
        return self._wrap(1)

    def constant(self, value: bool) -> Bdd:
        return self._wrap(1 if value else 0)

    def var(self, var: int) -> Bdd:
        self._check_var(var)
        return self._wrap(self._mk(var, 0, 1))

    def cube(self, literals: Mapping[int, bool]) -> Bdd:
        """Conjunction of literals, built bottom-up in one pass."""
        self._check_vars(literals.keys())
        mk = self._mk
        acc = 1
        for var in sorted(literals, reverse=True):
            acc = mk(var, 0, acc) if literals[var] else mk(var, acc, 0)
        return self._wrap(acc)

    def iff_cube(self, pairs: Mapping[int, int]) -> Bdd:
        """Conjunction of biconditionals ``a <=> b``.

        Built bottom-up in a single pass, which requires the constraints
        to be independent: the variable span of each biconditional must
        not interleave with another's.  This holds for frame formulas
        over banked variables (the intended use); a ValueError reports
        any interleaving.  A pair ``a: a`` is true and adds nothing.
        """
        spans: list[tuple[int, int]] = []
        for a, b in pairs.items():
            self._check_var(a)
            self._check_var(b)
            if a != b:
                spans.append((a, b) if a < b else (b, a))
        spans.sort()
        for (_, prev_hi), (cur_lo, _) in zip(spans, spans[1:]):
            if cur_lo <= prev_hi:
                raise ValueError("iff_cube constraints interleave in the variable order")
        return self._wrap(self._iff_chain(spans))

    def _iff_chain(self, spans: Sequence[tuple[int, int]]) -> int:
        """Handle of the conjunction of ``low <=> high`` over ``spans``,
        sorted pairs ``(low, high)`` with ``low < high`` whose spans do
        not interleave, built bottom-up in one pass; nothing is checked."""
        mk = self._mk
        acc = 1
        for low, high in reversed(spans):
            acc = mk(low, mk(high, acc, 0), mk(high, 0, acc))
        return acc

    def ite(self, cond: Bdd, then_case: Bdd, else_case: Bdd) -> Bdd:
        """If-then-else: ``(cond & then) | (!cond & else)`` in one pass."""
        return self._wrap(
            self._ite(self._own(cond), self._own(then_case), self._own(else_case))
        )

    def _ite(self, f: int, g: int, h: int) -> int:
        """``ite`` on handles, negation (``_ite(f, 0, 1)``) included.  The
        low cofactor is built before the high one, so every node is
        allocated after its low child and then its high child."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (_OP_ITE, f, g, h)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        var_f, var_g, var_h = self._var[f], self._var[g], self._var[h]
        top = min(var_f, var_g, var_h)
        if var_f == top:
            f_lo, f_hi = self._lo[f], self._hi[f]
        else:
            f_lo = f_hi = f
        if var_g == top:
            g_lo, g_hi = self._lo[g], self._hi[g]
        else:
            g_lo = g_hi = g
        if var_h == top:
            h_lo, h_hi = self._lo[h], self._hi[h]
        else:
            h_lo = h_hi = h
        result = self._mk(
            top, self._ite(f_lo, g_lo, h_lo), self._ite(f_hi, g_hi, h_hi)
        )
        self._cache[key] = result
        return result

    # -- Boolean combinators ---------------------------------------------------

    def apply(self, op: str, a: Bdd, b: Bdd) -> Bdd:
        """Pointwise Boolean combination; op in and/or/iff.  Any other
        operator is one ``ite`` call: xor is ``ite(a, not b, b)``."""
        code = _OP_CODES.get(op)
        if code is None:
            raise ValueError(f"unknown operator {op!r}")
        return self._wrap(self._apply(code, self._own(a), self._own(b)))

    def not_(self, a: Bdd) -> Bdd:
        return self._wrap(self._ite(self._own(a), 0, 1))

    def _apply(self, op: int, a: int, b: int) -> int:
        """AND, OR or IFF of two handles: the operators the compiler, the
        quantifiers and the relational product combine with.  The three
        are symmetric, so ``(a, b)`` and ``(b, a)`` share a cache entry."""
        if op == _OP_AND:
            if a == 0 or b == 0:
                return 0
            if a == 1:
                return b
            if b == 1 or a == b:
                return a
        elif op == _OP_OR:
            if a == 1 or b == 1:
                return 1
            if a == 0:
                return b
            if b == 0 or a == b:
                return a
        else:  # iff
            if a == b:
                return 1
            if a == 1:
                return b
            if b == 1:
                return a
        key = (op, b, a) if a > b else (op, a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        var_a, var_b = self._var[a], self._var[b]
        top = var_a if var_a < var_b else var_b
        if var_a == top:
            a_lo, a_hi = self._lo[a], self._hi[a]
        else:
            a_lo = a_hi = a
        if var_b == top:
            b_lo, b_hi = self._lo[b], self._hi[b]
        else:
            b_lo = b_hi = b
        result = self._mk(
            top, self._apply(op, a_lo, b_lo), self._apply(op, a_hi, b_hi)
        )
        self._cache[key] = result
        return result

    # -- quantification, renaming and restriction ------------------------------

    def exists(self, vars: Iterable[int], a: Bdd) -> Bdd:
        """Existential quantification over a set of variables."""
        qvars = frozenset(vars)
        for var in qvars:
            self._check_var(var)
        return self._wrap(self._and_exists(self._own(a), 1, qvars, {}))

    def and_exists(
        self, a: Bdd, b: Bdd, vars: Iterable[int], *, shift: Optional[Mapping[int, int]] = None
    ) -> Bdd:
        """``exists(vars, a & b)`` without building the full conjunction.

        Equivalent to the two-step form (checked by differential tests);
        quantified variables are eliminated as soon as the walk passes
        them, which keeps intermediate results small.

        With ``shift``, ``b`` is read through the renaming: the result is
        ``exists(vars, a & rename(shift, b))``, and the renamed copy of
        ``b`` is never built.  The order contract (``exists``, ``rename``
        and ``restrict`` are runs of this walk): each node of ``b`` the
        walk meets on a variable no deeper than the shift's deepest source
        must have its image above the images of its children's variables,
        or OrderViolation is raised at the first node where it does not.
        A shift strictly order-preserving on ``b``'s support never raises;
        the walk meets only the parts of ``b`` that meet ``a`` (none where
        ``a`` is False), so a shift that crosses elsewhere does not raise.
        """
        qvars = frozenset(vars)
        for var in qvars:
            self._check_var(var)
        ia, ib = self._own(a), self._own(b)
        shift = shift or {}
        for var, target in shift.items():
            self._check_var(var)
            self._check_var(target)
        return self._wrap(self._and_exists(ia, ib, qvars, shift))

    def _and_exists(self, x: int, y: int, qvars: Collection[int], shift: Mapping[int, int]) -> int:
        """``and_exists`` on handles, the one walk behind ``exists`` (``y``
        True), ``rename`` (``x`` True, no ``qvars``) and ``restrict``
        (``y`` the assignment's cube, ``qvars`` its variables).  ``qvars``
        holds variable ids; the caller has checked every id.

        The walk's state is bound once per call, into one tuple that
        ``_walk`` takes down the recursion, so a call on a tiny diagram
        pays for little beyond the pairs it visits.  One memo table per
        call holds both the results, keyed ``x * stride + y`` (at least
        ``stride``, the store's size at the call), and the image of each
        node of ``y`` the walk has checked, keyed by the node (below
        ``stride``).
        """
        if not qvars and not shift:
            return self._apply(_OP_AND, x, y)
        if not (x and y):
            return 0
        var_of = self._var
        state = (
            var_of,
            self._lo,
            self._hi,
            self._mk,
            self._apply,
            shift.get,
            qvars,
            max(qvars) if qvars else -1,
            # below ``max_d`` no variable of ``y`` is renamed
            max(shift) if shift else -1,
            # the walk meets only nodes of ``x`` and ``y``, all older than
            # the call
            len(var_of),
            {},
        )
        return _walk(x, y, state)

    def support(self, a: Bdd) -> frozenset[int]:
        return frozenset(self._var[u] for u in self._nodes(self._own(a)))

    def _nodes(self, root: int, known: Collection[int] = ()) -> list[int]:
        """Internal nodes reachable from ``root`` without passing through
        a node of ``known``, each once, in discovery order: the store's
        one reachable-node walk.  The list it grows is also its work list,
        so it needs no stack."""
        if root <= 1 or root in known:
            return []
        lo_of, hi_of = self._lo, self._hi
        seen = {0, 1, root}
        order = [root]
        for u in order:
            lo, hi = lo_of[u], hi_of[u]
            if lo not in seen and lo not in known:
                seen.add(lo)
                order.append(lo)
            if hi not in seen and hi not in known:
                seen.add(hi)
                order.append(hi)
        return order

    def rename(self, mapping: Mapping[int, int], a: Bdd) -> Bdd:
        """Simultaneous variable substitution: the shifted ``and_exists``
        walk of ``a`` against True, under its order contract.  A mapping
        strictly order-preserving on the support never raises, and one
        that crosses only on paths that never meet (``{1: 2, 2: 1}`` on
        ``ite(v0, v1, v2)``) still substitutes; one that merges variables
        can raise where the substitution is ordered (``{1: 3, 4: 5}`` on
        ``ite(v1, ite(v2, v5, v4), False)``: 1's image 3 sits below 2).
        """
        root = self._own(a)
        for var, target in mapping.items():
            self._check_var(var)
            self._check_var(target)
        return self._wrap(self._and_exists(1, root, (), mapping))

    def restrict(self, a: Bdd, vars: Sequence[int], values: Sequence[bool]) -> Bdd:
        """The cofactor of ``a`` with each ``vars[i]`` fixed to ``values[i]``
        (Bryant's restriction): a function of the other variables only.

        ``exists(vars, a & cube)`` by the ``and_exists`` walk, with the
        cube of the assignment built only when the op cache misses: the
        result is kept there under ``a``, ``vars`` and ``values`` (by
        value), so repeating a call is one lookup.  A variable listed twice
        raises ValueError, and an unregistered one UnknownVar.
        """
        root = self._own(a)
        vars, values = tuple(vars), tuple(values)
        key = (_OP_RESTRICT, root, vars, values)
        hit = self._cache.get(key)
        if hit is not None:
            return self._wrap(hit)
        # a value is read for its truth: None fixes its variable to False
        assignment = dict(zip(vars, map(bool, values)))
        if len(vars) != len(values) or len(assignment) != len(vars):
            raise ValueError("restrict needs one value per variable, each variable once")
        result = self._and_exists(root, self.cube(assignment).idx, assignment, {})
        self._cache[key] = result
        return self._wrap(result)

    # -- queries ----------------------------------------------------------------

    def node_count(self, a: Bdd) -> int:
        """Distinct internal nodes reachable from ``a`` (terminals excluded)."""
        return len(self._nodes(self._own(a)))

    def wmc(
        self, a: Bdd, weights: WeightFn, universe: Iterable[int], *, event: Optional[Bdd] = None
    ) -> Fraction:
        """Weighted model count of ``a`` (of ``a & event`` when ``event`` is
        given) over total assignments to ``universe``.

        Sums, over assignments satisfying ``a``, the product of the weight
        of every literal in the assignment.  One bottom-up pass; universe
        variables absent from a path contribute their smoothing factor.

        The pass runs on Python ints: each universe variable's weights
        ``(t, f)`` are scaled by ``s = lcm(t.denominator, f.denominator)``,
        and a node's count is kept multiplied by the scales of the
        universe from the node's variable down.  The result is exact: the
        scaled count of the root divided once by ``S``, the product of all
        scales, as a ``Fraction``.

        A node's scaled count depends only on the node, ``weights`` and
        ``universe``, so the store keeps one layout and one table of node
        counts per weight function and universe (compared by value), built
        at their first count.  Every pass reads the table, and the table
        holds only diagrams that were counted whole:

        - no event: the pass over ``a`` writes ``a``'s nodes into it, and
          the layout keeps the ``Fraction`` returned, so a repeated call
          on ``a`` is one lookup, with no pass and no normalisation;
        - a single literal (a node on two terminals) of a universe
          variable: the count is read from ``a``'s literal counts for
          the variable's weight class (``(1, 1)`` or weighted), which the
          layout keeps; the first such event of a class on ``a`` counts
          ``a`` into the table and runs one downward pass that gives them
          for every universe variable of that class at once (see
          ``_literal_counts``);
        - any other event: the event is conjoined with ``a`` and the
          conjunction counted by a pass that writes nothing.

        A universe variable weighing ``(0, 0)`` makes every model weigh 0,
        so every count is 0 and no pass runs; a support variable
        outside the universe still raises ``SupportOutsideUniverse``.
        """
        root = self._own(a)
        layout = self._count_layout(weights, universe)
        if event is None:
            count = layout.exact.get(root)
            if count is None:
                count = Fraction(self._count(root, layout, layout.table), layout.scale)
                layout.exact[root] = count
            return count
        e = self._own(event)
        hi = self._hi[e]
        # a terminal's variable is in no universe
        k = layout.position.get(self._var[e]) if hi <= 1 and self._lo[e] <= 1 else None
        if k is not None:
            unit = layout.unit[k]
            slots = layout.literals.get(root)
            if slots is None:
                slots = layout.literals[root] = [None, None]
            counts = slots[unit]
            if counts is None:
                counts = slots[unit] = self._literal_counts(root, layout, unit)
            return Fraction(counts[k] if hi else counts[-1] - counts[k], layout.scale)
        # the conjunction's nodes stay out of the table
        return Fraction(self._count(self._apply(_OP_AND, root, e), layout, {}), layout.scale)

    def _count(self, root: int, layout: _CountLayout, memo: dict[int, int]) -> int:
        """Scaled count of ``root`` under ``layout``, read from its table;
        the nodes the pass counts go into ``memo``.

        One loop, no recursion: ``_nodes`` lists the nodes of ``root``
        the table lacks, and they are counted in ascending handle order,
        children first, since a child is always older than its parent.
        A node's count is its weights times its children's counts, each
        times the smoothing factors of the positions its edge skips: one
        factor when it skips one, a ratio of prefix products when it
        skips more."""
        position, size, table = layout.position, layout.size, layout.table
        wt, wf, factor, prefix = layout.wt, layout.wf, layout.factor, layout.prefix
        var_of, lo_of, hi_of = self._var, self._lo, self._hi
        if prefix[-1]:
            todo = self._nodes(root, table)
            if not todo:
                # a terminal, or a root the table holds
                return table[root] * prefix[size if root <= 1 else position[var_of[root]]]
            todo.sort()
            get = memo.get
            try:
                for u in todo:
                    # the position lookup checks the universe: every node
                    # is looked up before it is counted
                    j = position[var_of[u]]
                    nxt = j + 1
                    child = hi_of[u]
                    if child:
                        high = get(child)
                        if high is None:
                            high = table[child]
                        k = size if child == 1 else position[var_of[child]]
                        if k != nxt:
                            high *= factor[nxt] if k == nxt + 1 else prefix[k] // prefix[nxt]
                        count = wt[j] * high
                    else:
                        count = 0
                    child = lo_of[u]
                    if child:
                        low = get(child)
                        if low is None:
                            low = table[child]
                        k = size if child == 1 else position[var_of[child]]
                        if k != nxt:
                            low *= factor[nxt] if k == nxt + 1 else prefix[k] // prefix[nxt]
                        count += wf[j] * low
                    memo[u] = count
                # the root, the newest of its nodes, was counted last
                return count * prefix[j]
            except KeyError:
                pass  # only the position lookup raises it: reported below
        missing = {var_of[u] for u in self._nodes(root)}.difference(position)
        if missing:
            raise SupportOutsideUniverse(
                f"support variables {sorted(missing)} not in the universe"
            )
        # a (0, 0) universe variable: every model weighs 0
        return 0

    def _literal_counts(self, root: int, layout: _CountLayout, unit: bool) -> list[int]:
        """Scaled ``wmc(root & v)`` for the universe variable ``v`` at each
        position of weight class ``unit`` (see ``_CountLayout``), 0 at the
        other class's positions, then the scaled count of ``root`` itself.

        ``root`` is first counted into the table, like any pass over a
        whole diagram.  A root that counts 0 (every root does under a
        ``(0, 0)`` universe variable) has every literal count 0; for any
        other, every smoothing factor is nonzero, and one top-down pass
        over ``root``'s nodes (Darwiche's differential pass) reads their
        counts from the table.  The nodes are visited in descending handle
        order, parents first, since a child is always older than its
        parent.  A node's outside weight sums, over the paths from the
        root to it, the weights along the path; each child gets the node's
        outside weight times the edge's weight and span (as in ``_count``,
        one smoothing factor when the edge skips one position), small
        factors that every node passes on.  The products of an outside
        weight and a child's count are the wide ones, and the pass takes
        them only where the asked class needs them: a node of the class is
        credited with the mass of its high edge (outside weight times the
        child's count), and the positions of the class that an edge skips
        with the edge's mass, through a difference array: a skipped
        position ``k`` gets ``mass * wt[k] // factor[k]``, exact because
        every mass that skips ``k`` carries its factor.
        """
        position, size, table = layout.position, layout.size, layout.table
        wt, wf, factor, prefix = layout.wt, layout.wf, layout.factor, layout.prefix
        classes = layout.unit
        # ``before[k]``: positions of the asked class before ``k``
        before = list(accumulate(map(unit.__eq__, classes), initial=0))
        var_of, lo_of, hi_of = self._var, self._lo, self._hi
        counts = [0] * (size + 1)
        total = counts[size] = self._count(root, layout, table)
        if not total:
            return counts
        # masses of the edges that skip each position, as differences
        skipped = [0] * (size + 1)
        top = size if root <= 1 else position[var_of[root]]
        skipped[0] = total
        skipped[top] -= total
        outside = {root: prefix[top]}
        for u in sorted(self._nodes(root), reverse=True):
            weight = outside.pop(u)
            j = position[var_of[u]]
            nxt = j + 1
            hi, lo = hi_of[u], lo_of[u]
            if hi:
                push = weight * wt[j]
                jc = size if hi == 1 else position[var_of[hi]]
                if jc != nxt:
                    push *= factor[nxt] if jc == nxt + 1 else prefix[jc] // prefix[nxt]
                credit = classes[j] == unit
                skips = before[jc] != before[nxt]
                if credit or skips:
                    mass = push * table[hi]
                    if credit:
                        counts[j] += mass
                    if skips:
                        skipped[nxt] += mass
                        skipped[jc] -= mass
                if hi > 1:
                    outside[hi] = outside.get(hi, 0) + push
            if lo:
                push = weight * wf[j]
                jc = size if lo == 1 else position[var_of[lo]]
                if jc != nxt:
                    push *= factor[nxt] if jc == nxt + 1 else prefix[jc] // prefix[nxt]
                    if before[jc] != before[nxt]:
                        mass = push * table[lo]
                        skipped[nxt] += mass
                        skipped[jc] -= mass
                if lo > 1:
                    outside[lo] = outside.get(lo, 0) + push
        running = 0
        for k in range(size):
            running += skipped[k]
            if running and classes[k] == unit:
                counts[k] += running * wt[k] // factor[k]
        return counts

    def _count_layout(self, weights: WeightFn, universe: Iterable[int]) -> _CountLayout:
        """The layout and count table of ``(weights, universe)``: kept in
        the op cache, so a store without one builds it for every pass.

        The last pair asked and its layout are also kept, so asking the
        same two objects again (a program's queries pass its one
        ``WeightFn`` and universe ``frozenset``) returns the layout
        without building or hashing a key."""
        last_weights, last_universe, layout = self._last_layout
        if weights is last_weights and universe is last_universe:
            return layout
        # the frozenset itself when ``universe`` is one, so only an
        # immutable universe can match by identity
        universe = frozenset(universe)
        key = (_OP_WMC, weights, universe)
        layout = self._cache.get(key)
        if layout is None:
            self._check_vars(universe)
            layout = _CountLayout(weights, universe)
            self._cache[key] = layout
        # an uncached store keeps nothing, this pair included
        if key in self._cache:
            self._last_layout = (weights, universe, layout)
        return layout

    # -- export ----------------------------------------------------------------

    def to_dot(self, a: Bdd) -> str:
        """GraphViz rendering: solid high edges, dashed low edges, and
        each node labelled with its variable's name."""
        root = self._own(a)
        lines = [
            "digraph bdd {",
            '  ordering="out";',
            "  node [shape=circle];",
        ]
        order = sorted(self._nodes(root))
        # a diagram without internal nodes is its terminal root
        terminals = {c for u in order for c in (self._lo[u], self._hi[u]) if c <= 1} or {root}
        for u in sorted(terminals):
            text = "T" if u else "F"
            lines.append(f'  n{u} [shape=box, label="{text}"];')
        for u in order:
            lines.append(f'  n{u} [label="{self._names[self._var[u]]}"];')
        for u in order:
            lines.append(f"  n{u} -> n{self._lo[u]} [style=dashed];")
            lines.append(f"  n{u} -> n{self._hi[u]} [style=solid];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _walk(x: int, y: int, state: tuple) -> int:
    """The recursion of ``NodeStore._and_exists`` on the pair ``(x, y)``,
    neither of them False (the caller checks, which saves a call on every
    edge to False).  A node of ``y`` on a variable up to ``max_d`` is read
    through the shift once its children are checked to sit below its
    image; OrderViolation is raised at the first node where they do not.
    """
    var_of, lo_of, hi_of, mk, apply_, image, qvars, max_q, max_d, stride, memo = state
    var_x, var_y = var_of[x], var_of[y]
    if var_y > max_d and (var_x if var_x < var_y else var_y) > max_q:
        return apply_(_OP_AND, x, y)
    key = x * stride + y
    hit = memo.get(key)
    if hit is not None:
        return hit
    if var_y <= max_d:
        seen = memo.get(y)
        if seen is None:
            seen = image(var_y, var_y)
            for child in (lo_of[y], hi_of[y]):
                below = var_of[child]
                if below <= max_d:
                    below = image(below, below)
                if below <= seen:
                    raise OrderViolation(
                        f"renaming is not order-preserving: {var_y} -> {seen} "
                        f"above variable {below}"
                    )
            memo[y] = seen
        var_y = seen
    top = var_x if var_x < var_y else var_y
    if var_x == top:
        x_lo, x_hi = lo_of[x], hi_of[x]
    else:
        x_lo = x_hi = x
    if var_y == top:
        y_lo, y_hi = lo_of[y], hi_of[y]
    else:
        y_lo = y_hi = y
    lo = _walk(x_lo, y_lo, state) if x_lo and y_lo else 0
    hi = _walk(x_hi, y_hi, state) if x_hi and y_hi else 0
    result = apply_(_OP_OR, lo, hi) if top in qvars else mk(top, lo, hi)
    memo[key] = result
    return result
