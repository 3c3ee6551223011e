"""Reduced ordered binary decision diagrams with weighted model counting.

A ``NodeStore`` owns a fixed global variable order (variables are dense
integer ids; smaller id = closer to the root), a hash-consing unique
table, and an operation cache.  Nodes are reduced on construction, so
two functions over one store are equal exactly when their handles are
equal.

Boolean combinators (``apply``, ``not_``), existential quantification,
order-preserving renaming, and a fused conjoin-then-quantify
(``and_exists``) are provided, plus ``wmc``: a single memoized
bottom-up pass computing the weighted model count over an explicit
variable universe.  A variable of the universe skipped along a path
contributes its smoothing factor (weight-true + weight-false).

Weights are exact rationals, and counts are exact.  ``wmc`` scales each
variable's weight pair to ints by the lcm of its denominators and counts
on Python ints, so a pass does no ``Fraction`` arithmetic and no float
arithmetic; the product of the scales is divided out once, at the end.

A store is a single-writer structure: calls on one store must be
externally serialized, but distinct stores are fully independent.
The quantifier/renaming operations use per-call memo tables only;
``wmc`` adds to them an optional table of scaled (int) node counts
owned by the caller, which a pass reads and, when asked, extends.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Union

_OP_AND, _OP_OR, _OP_XOR, _OP_IFF, _OP_IMPLIES, _OP_NOT, _OP_ITE = range(7)

_OP_CODES = {
    "and": _OP_AND,
    "or": _OP_OR,
    "xor": _OP_XOR,
    "iff": _OP_IFF,
    "implies": _OP_IMPLIES,
}

# terminals sort below every real variable
_TERMINAL_VAR = sys.maxsize

Weight = Union[Fraction, int]


class ManagerMismatch(Exception):
    """Operands belong to different NodeStores."""


class UnknownVar(Exception):
    """Variable id is not registered in the store."""


class OrderViolation(Exception):
    """A renaming does not preserve the variable order on the support."""


class SupportOutsideUniverse(Exception):
    """wmc was asked to count over a universe missing support variables."""


class WeightFn:
    """Per-variable literal weights: id -> (weight-true, weight-false).

    Unlisted variables weigh (1, 1).  Weights must be nonnegative exact
    rationals (floats are rejected to keep model counts exact).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, tuple[Weight, Weight]] = ()):
        store: dict[int, tuple[Fraction, Fraction]] = {}
        for var, (wt, wf) in dict(entries).items():
            store[var] = (self._coerce(wt), self._coerce(wf))
        self._entries = store

    @staticmethod
    def _coerce(w: Weight) -> Fraction:
        if isinstance(w, float):
            raise TypeError("weights must be exact rationals, not floats")
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w}")
        return w

    def weight(self, var: int) -> tuple[Fraction, Fraction]:
        return self._entries.get(var, (Fraction(1), Fraction(1)))

    def items(self):
        return self._entries.items()

    def __contains__(self, var: int) -> bool:
        return var in self._entries

    def __eq__(self, other):
        return isinstance(other, WeightFn) and self._entries == other._entries

    def __repr__(self):
        return f"WeightFn({self._entries!r})"

    def merged(self, other: "WeightFn") -> "WeightFn":
        """Union of two weight functions; overlapping entries must agree."""
        if not other._entries:
            return self
        if not self._entries:
            return other
        entries = dict(self._entries)
        for var, w in other._entries.items():
            if entries.setdefault(var, w) != w:
                raise ValueError(f"conflicting weights for variable {var}")
        # both sides are already coerced, so skip __init__'s checks: a
        # compile merges once per statement
        result = WeightFn.__new__(WeightFn)
        result._entries = entries
        return result


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

    def __xor__(self, other: "Bdd") -> "Bdd":
        return self.store.apply("xor", self, other)

    def __invert__(self) -> "Bdd":
        return self.store.not_(self)


class NodeStore:
    """Shared node table for one family of BDDs."""

    def __init__(self, names: Iterable[str] = (), *, op_cache: bool = True):
        # handles 0/1 are the False/True terminals
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: Optional[dict] = {} if op_cache else None
        self._names: list[str] = []
        for name in names:
            self.add_var(name)

    # -- variables ----------------------------------------------------------

    def add_var(self, name: Optional[str] = None) -> int:
        """Register the next variable in the global order; returns its id."""
        var = len(self._names)
        self._names.append(name if name is not None else f"v{var}")
        limit = 3000 + 8 * len(self._names)
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        return var

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def var_name(self, var: int) -> str:
        self._check_var(var)
        return self._names[var]

    def _check_var(self, var: int):
        if not isinstance(var, int) or not 0 <= var < len(self._names):
            raise UnknownVar(f"variable id {var!r} is not registered")

    def __len__(self) -> int:
        """Total allocated nodes, terminals included (monotone; no GC)."""
        return len(self._var)

    def clear_op_cache(self):
        if self._cache is not None:
            self._cache.clear()

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
        acc = 1
        for var in sorted(literals, reverse=True):
            self._check_var(var)
            acc = self._mk(var, 0, acc) if literals[var] else self._mk(var, acc, 0)
        return self._wrap(acc)

    def iff_cube(
        self, pairs: Mapping[int, int], literals: Mapping[int, bool] = ()
    ) -> Bdd:
        """Conjunction of biconditionals ``a <=> b`` plus fixed literals.

        Built bottom-up in a single pass, which requires the constraints
        to be independent: the variable span of each biconditional must
        not interleave with another constraint's span.  This holds for
        frame formulas over banked variables (the intended use); a
        ValueError reports any interleaving.
        """
        spans: list[tuple[int, int, int]] = []  # (low, high, kind/payload)
        for a, b in pairs.items():
            self._check_var(a)
            self._check_var(b)
            spans.append((a, b, -1) if a < b else ((b, a, -1)))
        for var, value in dict(literals).items():
            self._check_var(var)
            spans.append((var, var, 1 if value else 0))
        spans.sort()
        for (_, prev_hi, _), (cur_lo, _, _) in zip(spans, spans[1:]):
            if cur_lo <= prev_hi:
                raise ValueError("iff_cube constraints interleave in the variable order")
        acc = 1
        for low, high, kind in reversed(spans):
            if kind < 0:
                acc = self._mk(low, self._mk(high, acc, 0), self._mk(high, 0, acc))
            elif kind:
                acc = self._mk(low, 0, acc)
            else:
                acc = self._mk(low, acc, 0)
        return self._wrap(acc)

    def ite(self, cond: Bdd, then_case: Bdd, else_case: Bdd) -> Bdd:
        """If-then-else: ``(cond & then) | (!cond & else)`` in one pass."""
        return self._wrap(
            self._ite(self._own(cond), self._own(then_case), self._own(else_case))
        )

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return self._not(f)
        cache = self._cache
        if cache is not None:
            key = (_OP_ITE, f, g, h)
            hit = cache.get(key)
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
        if cache is not None:
            cache[key] = result
        return result

    # -- Boolean combinators ---------------------------------------------------

    def apply(self, op: str, a: Bdd, b: Bdd) -> Bdd:
        """Pointwise Boolean combination; op in and/or/xor/iff/implies."""
        code = _OP_CODES.get(op)
        if code is None:
            raise ValueError(f"unknown operator {op!r}")
        return self._wrap(self._apply(code, self._own(a), self._own(b)))

    def not_(self, a: Bdd) -> Bdd:
        return self._wrap(self._not(self._own(a)))

    def _not(self, a: int) -> int:
        if a <= 1:
            return 1 - a
        cache = self._cache
        if cache is not None:
            key = (_OP_NOT, a, 0)
            hit = cache.get(key)
            if hit is not None:
                return hit
        result = self._mk(self._var[a], self._not(self._lo[a]), self._not(self._hi[a]))
        if cache is not None:
            cache[key] = result
        return result

    def _apply(self, op: int, a: int, b: int) -> int:
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
        elif op == _OP_XOR:
            if a == b:
                return 0
            if a == 0:
                return b
            if b == 0:
                return a
            if a == 1:
                return self._not(b)
            if b == 1:
                return self._not(a)
        elif op == _OP_IFF:
            if a == b:
                return 1
            if a == 1:
                return b
            if b == 1:
                return a
            if a == 0:
                return self._not(b)
            if b == 0:
                return self._not(a)
        else:  # implies
            if a == 0 or b == 1 or a == b:
                return 1
            if a == 1:
                return b
            if b == 0:
                return self._not(a)
        cache = self._cache
        if cache is not None:
            # the four symmetric operators share cache entries
            key = (op, b, a) if op != _OP_IMPLIES and a > b else (op, a, b)
            hit = cache.get(key)
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
        if cache is not None:
            cache[key] = result
        return result

    # -- quantification and renaming -----------------------------------------

    def exists(self, vars: Iterable[int], a: Bdd) -> Bdd:
        """Existential quantification over a set of variables."""
        qvars = frozenset(vars)
        for var in qvars:
            self._check_var(var)
        root = self._own(a)
        if not qvars:
            return a
        max_q = max(qvars)
        memo: dict[int, int] = {}

        def rec(u: int) -> int:
            if u <= 1 or self._var[u] > max_q:
                return u
            hit = memo.get(u)
            if hit is not None:
                return hit
            var = self._var[u]
            lo, hi = rec(self._lo[u]), rec(self._hi[u])
            result = self._apply(_OP_OR, lo, hi) if var in qvars else self._mk(var, lo, hi)
            memo[u] = result
            return result

        return self._wrap(rec(root))

    def and_exists(self, a: Bdd, b: Bdd, vars: Iterable[int]) -> Bdd:
        """``exists(vars, a & b)`` without building the full conjunction.

        Equivalent to the two-step form (checked by differential tests);
        quantified variables are eliminated as soon as the recursion
        passes them, which keeps intermediate results small.
        """
        qvars = frozenset(vars)
        for var in qvars:
            self._check_var(var)
        ia, ib = self._own(a), self._own(b)
        if not qvars:
            return self._wrap(self._apply(_OP_AND, ia, ib))
        max_q = max(qvars)
        memo: dict[tuple[int, int], int] = {}

        def rec(x: int, y: int) -> int:
            if x == 0 or y == 0:
                return 0
            if x == 1 and y == 1:
                return 1
            var_x, var_y = self._var[x], self._var[y]
            top = var_x if var_x < var_y else var_y
            if top > max_q:
                return self._apply(_OP_AND, x, y)
            key = (y, x) if x > y else (x, y)
            hit = memo.get(key)
            if hit is not None:
                return hit
            if var_x == top:
                x_lo, x_hi = self._lo[x], self._hi[x]
            else:
                x_lo = x_hi = x
            if var_y == top:
                y_lo, y_hi = self._lo[y], self._hi[y]
            else:
                y_lo = y_hi = y
            lo, hi = rec(x_lo, y_lo), rec(x_hi, y_hi)
            result = self._apply(_OP_OR, lo, hi) if top in qvars else self._mk(top, lo, hi)
            memo[key] = result
            return result

        return self._wrap(rec(ia, ib))

    def support(self, a: Bdd) -> frozenset[int]:
        return frozenset(self._support(self._own(a)))

    def _support(self, root: int, bound: int = _TERMINAL_VAR) -> set[int]:
        """Support variables up to ``bound``: the walk does not descend
        below a node whose variable exceeds it."""
        seen: set[int] = set()
        vars: set[int] = set()
        stack = [root]
        while stack:
            u = stack.pop()
            if u <= 1 or u in seen or self._var[u] > bound:
                continue
            seen.add(u)
            vars.add(self._var[u])
            stack.append(self._lo[u])
            stack.append(self._hi[u])
        return vars

    def rename(self, mapping: Mapping[int, int], a: Bdd) -> Bdd:
        """Simultaneous variable substitution, a single structural pass.

        The mapping (with unmapped support variables as fixpoints) must be
        strictly order-preserving on the support, otherwise the pass
        would not produce an ordered diagram and OrderViolation is raised.
        """
        root = self._own(a)
        for var, target in mapping.items():
            self._check_var(var)
            self._check_var(target)
        if not mapping:
            return a
        # variables above the bound map to themselves and every ancestor
        # of a node has a smaller variable, so the order can only break
        # on the support at or below the bound
        bound = max(max(mapping), max(mapping.values()))
        support = sorted(self._support(root, bound))
        images = [mapping.get(var, var) for var in support]
        for prev, cur in zip(images, images[1:]):
            if prev >= cur:
                raise OrderViolation(
                    f"renaming is not order-preserving on the support: "
                    f"{prev} !< {cur}"
                )
        relevant = {var: mapping[var] for var in support if var in mapping}
        if not relevant:
            return a
        max_d = max(relevant)
        memo: dict[int, int] = {}

        def rec(u: int) -> int:
            if u <= 1 or self._var[u] > max_d:
                return u
            hit = memo.get(u)
            if hit is not None:
                return hit
            var = self._var[u]
            result = self._mk(
                relevant.get(var, var), rec(self._lo[u]), rec(self._hi[u])
            )
            memo[u] = result
            return result

        return self._wrap(rec(root))

    # -- queries ----------------------------------------------------------------

    def evaluate(self, a: Bdd, assignment: Mapping[int, bool]) -> bool:
        """Follow one root-to-terminal path under a (total-enough) assignment."""
        u = self._own(a)
        while u > 1:
            u = self._hi[u] if assignment[self._var[u]] else self._lo[u]
        return u == 1

    def node_count(self, a: Bdd) -> int:
        """Distinct internal nodes reachable from ``a`` (terminals excluded)."""
        root = self._own(a)
        seen: set[int] = set()
        stack = [root]
        while stack:
            u = stack.pop()
            if u <= 1 or u in seen:
                continue
            seen.add(u)
            stack.append(self._lo[u])
            stack.append(self._hi[u])
        return len(seen)

    def wmc(
        self,
        a: Bdd,
        weights: WeightFn,
        universe: Iterable[int],
        *,
        table: Optional[dict] = None,
        extend_table: bool = False,
    ) -> Fraction:
        """Weighted model count of ``a`` over total assignments to ``universe``.

        Sums, over assignments satisfying ``a``, the product of the weight
        of every literal in the assignment.  One bottom-up pass with a
        per-call memo; universe variables absent from a path contribute
        their smoothing factor.

        The pass runs on Python ints: each universe variable's weights
        ``(t, f)`` are scaled by ``s = lcm(t.denominator, f.denominator)``,
        and a node's count is kept multiplied by the scales of the
        universe from the node's variable down.  The result is exact: the
        scaled count of the root divided once by ``S``, the product of all
        scales, as a ``Fraction``.

        A node's scaled count depends only on the node, ``weights`` and
        ``universe``.  ``table`` maps nodes to scaled counts computed
        earlier with the same two; the pass reads it, and writes the nodes
        it counts into it only when ``extend_table`` is set.  The caller
        owns the table and must never pass it with other weights or
        another universe.
        """
        root = self._own(a)
        uni = sorted(set(universe))
        for var in uni:
            self._check_var(var)
        position = {var: i for i, var in enumerate(uni)}
        size = len(uni)
        wt: list[int] = []
        wf: list[int] = []
        # prefix products of the nonzero smoothing factors, plus a running
        # count of zero factors, so any interval product is one division
        prefix = [1]
        zeros = [0]
        scale = 1
        for var in uni:
            t, f = weights.weight(var)
            s = lcm(t.denominator, f.denominator)
            t = t.numerator * (s // t.denominator)
            f = f.numerator * (s // f.denominator)
            wt.append(t)
            wf.append(f)
            scale *= s
            factor = t + f
            if factor == 0:
                prefix.append(prefix[-1])
                zeros.append(zeros[-1] + 1)
            else:
                prefix.append(prefix[-1] * factor)
                zeros.append(zeros[-1])

        if table is None:
            table = {}
        memo = table if extend_table else {}
        memo[0] = 0
        memo[1] = 1
        var_of, lo_of, hi_of = self._var, self._lo, self._hi

        def node_value(u: int) -> int:
            hit = memo.get(u)
            if hit is None:
                hit = table.get(u)
            if hit is not None:
                return hit
            k = position[var_of[u]]
            result = wt[k] * edge(hi_of[u], k + 1) + wf[k] * edge(lo_of[u], k + 1)
            memo[u] = result
            return result

        def edge(child: int, i: int) -> int:
            if child == 0:
                return 0
            # the position lookup checks the universe: every node is
            # looked up, and visited even where the span is 0, before it
            # is counted or read from the table
            j = size if child == 1 else position[var_of[child]]
            count = node_value(child)
            if j == i:
                return count
            if zeros[i] != zeros[j]:
                return 0
            return prefix[j] // prefix[i] * count

        try:
            count = edge(root, 0)
        except KeyError:
            missing = self._support(root).difference(uni)
            if not missing:
                raise
            raise SupportOutsideUniverse(
                f"support variables {sorted(missing)} not in the universe"
            ) from None
        return Fraction(count, scale)

    # -- export ----------------------------------------------------------------

    def to_dot(self, a: Bdd, names: Optional[Mapping[int, str]] = None) -> str:
        """GraphViz rendering: solid high edges, dashed low edges."""
        root = self._own(a)
        label = (
            (lambda v: names[v]) if names is not None else (lambda v: self._names[v])
        )
        lines = [
            "digraph bdd {",
            '  ordering="out";',
            "  node [shape=circle];",
        ]
        seen: set[int] = set()
        terminals: set[int] = set()
        order = []
        stack = [root]
        while stack:
            u = stack.pop()
            if u <= 1:
                terminals.add(u)
                continue
            if u in seen:
                continue
            seen.add(u)
            order.append(u)
            stack.append(self._hi[u])
            stack.append(self._lo[u])
        for u in sorted(terminals):
            text = "T" if u else "F"
            lines.append(f'  n{u} [shape=box, label="{text}"];')
        for u in sorted(order):
            lines.append(f'  n{u} [label="{label(self._var[u])}"];')
        for u in sorted(order):
            lines.append(f"  n{u} -> n{self._lo[u]} [style=dashed];")
            lines.append(f"  n{u} -> n{self._hi[u]} [style=solid];")
        lines.append("}")
        return "\n".join(lines) + "\n"
