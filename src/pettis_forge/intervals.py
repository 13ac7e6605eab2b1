"""Half-open interval algebra on [0, 1) with exact dyadic endpoints.

Dyadic rationals j/2^m with m <= 52 are exactly representable in binary
floating point, and scaling a float by a power of two is exact, so the
dyadic-cell arithmetic below never rounds.  Non-dyadic endpoints round to
the nearest float.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DegenerateIntervalError, LevelOverflowError

#: Deepest level at which dyadic cells may be constructed directly.
MAX_DYADIC_LEVEL = 40

#: Internal search ceiling for the inner-dyadic finder; still float-exact.
_SEARCH_MAX_LEVEL = 48


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open interval [lo, hi) with 0 <= lo <= hi <= 1."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi})")

    @property
    def measure(self) -> float:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo!r}, {self.hi!r})"


@dataclass(frozen=True, slots=True)
class DyadicIndex:
    """Cell coordinates (level, index) for [(index-1)/2^level, index/2^level)."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"negative dyadic level {self.level}")
        if not (1 <= self.index <= (1 << self.level)):
            raise ValueError(
                f"dyadic index {self.index} out of range for level {self.level}"
            )


def dyadic_interval(d: DyadicIndex) -> Interval:
    """Exact cell [(k-1)/2^n, k/2^n) for ``d = (n, k)``.

    Levels above MAX_DYADIC_LEVEL are rejected to keep the exactness
    guarantee explicit.
    """
    if d.level > MAX_DYADIC_LEVEL:
        raise LevelOverflowError(
            f"dyadic level {d.level} exceeds the exact-endpoint cap {MAX_DYADIC_LEVEL}"
        )
    return Interval(math.ldexp(d.index - 1, -d.level), math.ldexp(d.index, -d.level))


def find_inner_dyadic(i: Interval) -> DyadicIndex:
    """Smallest-level (then smallest-index) dyadic cell contained in ``i``.

    The returned cell [j/2^m, (j+1)/2^m) satisfies 4 * 2^-m >= measure(i):
    if no cell of level m-1 fits, the interval is shorter than 2 * 2^-(m-1),
    so the first level that fits automatically meets the factor-4 bound.
    Never fails for measure(i) > 0 within the supported scale range.
    """
    if i.measure <= 0.0:
        raise DegenerateIntervalError(f"interval {i} has no interior")
    for m in range(_SEARCH_MAX_LEVEL + 1):
        # Smallest j with j/2^m >= lo; ldexp is exact, so no rounding guard
        # beyond the ceil itself is needed.
        j = math.ceil(math.ldexp(i.lo, m))
        if math.ldexp(j + 1, -m) <= i.hi:
            return DyadicIndex(m, j + 1)
    raise LevelOverflowError(
        f"no dyadic cell of level <= {_SEARCH_MAX_LEVEL} fits inside {i}"
    )


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of disjoint, non-adjacent half-open intervals.

    The canonical form (sorted, merged, no empty parts) is unique for a given
    point set, so equality of sets is equality of tuples.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", _canonical(self.parts))

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, *parts: Interval) -> "IntervalSet":
        return cls(parts)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[float]]) -> "IntervalSet":
        return cls(Interval(float(lo), float(hi)) for lo, hi in pairs)

    # -- queries -------------------------------------------------------

    @property
    def measure(self) -> float:
        return math.fsum(p.hi - p.lo for p in self.parts)

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: float) -> bool:
        return any(p.lo <= x < p.hi for p in self.parts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IntervalSet(" + ", ".join(map(repr, self.parts)) + ")"

    # -- algebra ---------------------------------------------------------

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        a, b = self.parts, other.parts
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            lo = max(a[ia].lo, b[ib].lo)
            hi = min(a[ia].hi, b[ib].hi)
            if lo < hi:
                out.append(Interval(lo, hi))
            if a[ia].hi <= b[ib].hi:
                ia += 1
            else:
                ib += 1
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        for part in self.parts:
            cursor = part.lo
            for cut in other.parts:
                if cut.hi <= cursor:
                    continue
                if cut.lo >= part.hi:
                    break
                if cut.lo > cursor:
                    out.append(Interval(cursor, min(cut.lo, part.hi)))
                cursor = max(cursor, cut.hi)
                if cursor >= part.hi:
                    break
            if cursor < part.hi:
                out.append(Interval(cursor, part.hi))
        return IntervalSet(out)

    def clip(self, lo: float, hi: float) -> "IntervalSet":
        """Intersection with a single interval [lo, hi)."""
        if hi <= lo:
            return IntervalSet()
        out = []
        for p in self.parts:
            a, b = max(p.lo, lo), min(p.hi, hi)
            if a < b:
                out.append(Interval(a, b))
        return IntervalSet(out)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    # -- serialization ----------------------------------------------------

    def to_pairs(self) -> list[list[float]]:
        return [[p.lo, p.hi] for p in self.parts]


def _canonical(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    # One nonempty part is already canonical: ``IntervalSet.of(iv)`` skips the sort.
    if type(parts) is tuple and len(parts) == 1 and parts[0].lo < parts[0].hi:
        return parts
    nonempty = sorted((p for p in parts if p.hi > p.lo), key=lambda p: p.lo)
    merged: list[Interval] = []
    for p in nonempty:
        if merged and p.lo <= merged[-1].hi:
            if p.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, p.hi)
        else:
            merged.append(p)
    return tuple(merged)
