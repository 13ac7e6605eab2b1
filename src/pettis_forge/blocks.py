"""Sparse vectors in an l_p direct sum of finite-dimensional coordinate blocks.

A layout fixes the exponent p and the dimension of each block level; vectors
and functionals are sparse coordinate maps (level, index) -> value.  Because
blocks are exact coordinate subspaces, block projections have operator norm
exactly 1 and the p-th power of the norm is additive over disjoint level
sets, which is what keeps downstream enclosures tight.

Values are immutable; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import LayoutMismatchError


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1."""
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class BlockLayout:
    """Exponent p in [1, inf] plus per-level block dimensions."""

    p: float
    dims: tuple[tuple[int, int], ...]  # sorted (level, dimension)

    def __post_init__(self) -> None:
        if self.p < 1.0:
            raise LayoutMismatchError(f"exponent must be >= 1, got {self.p}")
        levels = [n for n, _ in self.dims]
        if levels != sorted(set(levels)):
            raise LayoutMismatchError("layout levels must be sorted and unique")
        if any(d < 1 for _, d in self.dims):
            raise LayoutMismatchError("block dimensions must be >= 1")

    @classmethod
    def power_of_two(cls, p: float, depth: int) -> "BlockLayout":
        """Blocks of dimension 2^n for n = 1..depth."""
        return cls(p, tuple((n, 1 << n) for n in range(1, depth + 1)))

    def _validate(self, coeffs: Mapping[tuple[int, int], float]) -> None:
        table = dict(self.dims)
        for (n, k) in coeffs:
            d = table.get(n)
            if d is None:
                raise LayoutMismatchError(f"level {n} not in layout")
            if not (1 <= k <= d):
                raise LayoutMismatchError(f"index {k} outside block of dimension {d} at level {n}")


def _clean(entries: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    return {(int(n), int(k)): float(v) for (n, k), v in entries.items() if v != 0.0}


def _pnorm(values: Iterable[float], p: float) -> float:
    vals = [abs(v) for v in values]
    if not vals:
        return 0.0
    if math.isinf(p):
        return max(vals)
    if p == 1.0:
        return math.fsum(vals)
    if p == 2.0:
        return math.sqrt(math.fsum(v * v for v in vals))
    return math.fsum(v**p for v in vals) ** (1.0 / p)


@dataclass(frozen=True)
class BlockVector:
    """Sparse element of the direct sum; zero coefficients are never stored."""

    layout: BlockLayout
    coeffs: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _clean(self.coeffs))
        self.layout._validate(self.coeffs)

    def norm(self) -> float:
        return _pnorm(self.coeffs.values(), self.layout.p)

    def add(self, other: "BlockVector") -> "BlockVector":
        self._check_layout(other)
        out = dict(self.coeffs)
        for nk, v in other.coeffs.items():
            out[nk] = out.get(nk, 0.0) + v
        return BlockVector(self.layout, out)

    def sub(self, other: "BlockVector") -> "BlockVector":
        return self.add(other.scale(-1.0))

    def scale(self, t: float) -> "BlockVector":
        return BlockVector(self.layout, {nk: t * v for nk, v in self.coeffs.items()})

    def _check_layout(self, other: "BlockVector | Functional") -> None:
        if self.layout != other.layout:
            raise LayoutMismatchError("operands use different layouts")


@dataclass(frozen=True)
class Functional:
    """Finite-support functional acting by coordinate pairing.

    Its natural norm is the dual l_q norm, 1/p + 1/q = 1.
    """

    layout: BlockLayout
    coeffs: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _clean(self.coeffs))
        self.layout._validate(self.coeffs)

    def dual_norm(self) -> float:
        return _pnorm(self.coeffs.values(), dual_exponent(self.layout.p))

    def apply(self, v: BlockVector) -> float:
        if self.layout != v.layout:
            raise LayoutMismatchError("functional and vector use different layouts")
        small, big = (
            (self.coeffs, v.coeffs)
            if len(self.coeffs) <= len(v.coeffs)
            else (v.coeffs, self.coeffs)
        )
        return math.fsum(val * big[nk] for nk, val in small.items() if nk in big)

    def max_level(self) -> int:
        return max((n for n, _ in self.coeffs), default=0)

