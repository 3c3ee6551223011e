"""Seeded generators for the benchmark program families.

Three families, all emitting dippl source text deterministically from a
64-bit seed (same spec -> byte-identical program):

* ``chain``: a Markov chain; variable ``x1`` is flipped, and each later
  ``xi`` is flipped with one of two parameters chosen by ``x{i-1}``.
  Exponentially many execution paths, linear-size compiled diagrams.
* ``grid``: a k-by-k Boolean network with edges right and down; each
  node branches on its parents' values and flips its variable, one
  parameter per parent valuation.  A determinism fraction ``d``
  replaces ``floor(d * #flips)`` of the flips (chosen by a seeded
  shuffle) with constant assignments.
* ``ladder``: k independent flips into k distinct variables; diagram
  growth is affine in k.

Flip parameters are drawn uniformly from {1/10, ..., 9/10} with a
splitmix64 generator, so outputs are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: tiny, fast, platform-independent 64-bit PRNG."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def coin(self) -> bool:
        return bool(self.next_u64() & 1)

    def theta(self) -> Fraction:
        """Uniform flip parameter from {1/10, ..., 9/10}."""
        return Fraction(1 + self.randrange(9), 10)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def _coerce_fraction(value: Union[Fraction, float, int, str]) -> Fraction:
    # floats go through their decimal rendering so 0.9 means exactly 9/10
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def gen_chain(n: int, seed: int) -> str:
    """Markov chain of length ``n`` (variables x1..xn, 2n-1 flips)."""
    if n < 1:
        raise ValueError("chain length must be positive")
    rng = SplitMix64(seed)
    lines = [f"x1 ~ flip({rng.theta()})"]
    for i in range(2, n + 1):
        then_theta = rng.theta()
        else_theta = rng.theta()
        lines.append(
            f"if x{i - 1} {{ x{i} ~ flip({then_theta}) }}"
            f" else {{ x{i} ~ flip({else_theta}) }}"
        )
    return ";\n".join(lines) + "\n"


_LADDER_TENTHS = (6, 7, 8, 9, 1, 2, 3, 4, 5)


def gen_ladder(k: int) -> str:
    """``k`` independent flips into ``k`` distinct variables."""
    if k < 1:
        raise ValueError("ladder size must be positive")
    lines = []
    for i in range(1, k + 1):
        theta = Fraction(_LADDER_TENTHS[(i - 1) % len(_LADDER_TENTHS)], 10)
        lines.append(f"x{i} ~ flip({theta})")
    return ";\n".join(lines) + "\n"


def grid_flip_count(k: int) -> int:
    """Flips in an undeterminized k-grid: one per parent valuation per node."""
    if k < 1:
        raise ValueError("grid side must be positive")
    if k == 1:
        return 1
    # one root, 2(k-1) single-parent edge nodes, (k-1)^2 two-parent nodes
    return 1 + 2 * (k - 1) * 2 + (k - 1) * (k - 1) * 4


def grid_var(i: int, j: int) -> str:
    return f"g{i}_{j}"


def gen_grid(k: int, determinism: Union[Fraction, float, str] = 0, *, seed: int) -> str:
    """k-by-k grid network with a fraction of flips made deterministic.

    Parameters for all flips are drawn first, then ``floor(determinism *
    #flips)`` flip sites (selected by a seeded shuffle; the selection
    grows monotonically with the fraction) are replaced by constant
    assignments with a coin from the same generator.
    """
    determinism = _coerce_fraction(determinism)
    if not 0 <= determinism <= 1:
        raise ValueError("determinism must lie in [0, 1]")
    rng = SplitMix64(seed)
    total = grid_flip_count(k)
    thetas = [rng.theta() for _ in range(total)]
    sites = list(range(total))
    rng.shuffle(sites)
    replaced = {site: rng.coin() for site in sites[: int(determinism * total)]}

    counter = [0]

    def sample(target: str) -> str:
        site = counter[0]
        counter[0] += 1
        if site in replaced:
            return f"{target} := {'true' if replaced[site] else 'false'}"
        return f"{target} ~ flip({thetas[site]})"

    lines = []
    for i in range(k):
        for j in range(k):
            target = grid_var(i, j)
            parents = []
            if i > 0:
                parents.append(grid_var(i - 1, j))
            if j > 0:
                parents.append(grid_var(i, j - 1))
            if not parents:
                lines.append(sample(target))
            elif len(parents) == 1:
                lines.append(
                    f"if {parents[0]} {{ {sample(target)} }}"
                    f" else {{ {sample(target)} }}"
                )
            else:
                p, q = parents
                arms = [sample(target) for _ in range(4)]
                lines.append(
                    f"if {p} {{ if {q} {{ {arms[0]} }} else {{ {arms[1]} }} }}"
                    f" else {{ if {q} {{ {arms[2]} }} else {{ {arms[3]} }} }}"
                )
    return ";\n".join(lines) + "\n"


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark cell; equal specs always yield byte-identical text."""

    family: str
    size: int
    determinism: Fraction = Fraction(0)
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("chain", "grid", "ladder"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.size < 1:
            raise ValueError("size must be positive")
        object.__setattr__(self, "determinism", _coerce_fraction(self.determinism))
        if not 0 <= self.determinism <= 1:
            raise ValueError("determinism must lie in [0, 1]")

    def source(self) -> str:
        if self.family == "chain":
            return gen_chain(self.size, self.seed)
        if self.family == "grid":
            return gen_grid(self.size, self.determinism, seed=self.seed)
        return gen_ladder(self.size)

    def query_var(self) -> str:
        """The conventional query variable: the generated program's sink."""
        if self.family == "grid":
            return grid_var(self.size - 1, self.size - 1)
        return f"x{self.size}"
