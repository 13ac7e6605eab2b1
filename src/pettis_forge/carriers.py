"""Disjoint positive-measure carrier families inside the dyadic cells.

A family of depth N assigns to every cell I(n, k) = [(k-1)/2^n, k/2^n),
1 <= n <= N, 1 <= k <= 2^n, a carrier subset A(n, k) of positive measure such
that all carriers are pairwise disjoint across the entire family.  Every
point of [0, 1) therefore lies in at most one carrier.

Two deterministic built-in schemes are provided.

``greedy-gap`` (default)
    Cells are processed from the deepest level upward; each carrier takes
    the middle half of the largest free gap of its cell (leftmost gap on
    ties).  Processing deepest-first keeps every cell's free region
    nonempty; processing shallow-first would not (a level-1 carrier of
    length 1/4 swallows level-3 cells whole).  The resulting family is
    self-similar across cells of one level, which yields the closed forms
    used below: each carrier is a single interval centered in its cell,
    with relative bounds depending only on N - n.  All endpoints are dyadic
    of level at most N + 3, hence float-exact for every supported depth.

``stratified``
    Every carrier spreads into the finest-level subcells of its cell: level
    n claims the relative slice [2^-n, 2^-(n-1)) of each level-N subcell
    below it.  Slices of different levels are disjoint inside every finest
    cell, no carrier contains a complete dyadic cell of level <= N
    (Cantor-like porosity), and the leftover relative slice [0, 2^-N)
    keeps every cell's free region positive.  Endpoints are dyadic of level
    N + n, so this scheme is capped at depth 26 to stay float-exact.

Explicit families (deserialized or hand-built) store their sets verbatim
and are checked, not trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .errors import (
    AllocationExhaustedError,
    CarrierIndexError,
    ConfigError,
    MaterializationLimitError,
)
from .intervals import Interval, IntervalSet

GREEDY_GAP = "greedy-gap"
STRATIFIED = "stratified"
EXPLICIT = "explicit"

_SCHEMES = (GREEDY_GAP, STRATIFIED, EXPLICIT)

MAX_DEPTH = 40
MAX_STRATIFIED_DEPTH = 26

#: Shortest component length allowed before middle-half extraction.
POSITIVITY_FLOOR = math.ldexp(1.0, -80)

#: Materialization guard for carrier(), occupied() and serialization.
DEFAULT_PART_LIMIT = 1 << 21


@dataclass(frozen=True)
class CarrierFamily:
    """Immutable family of disjoint carriers, one per dyadic cell.

    Built-in schemes never store their sets; carriers are produced on demand
    from closed forms, and measures/overlaps are computed in O(1) per cell.
    """

    depth: int
    scheme: str
    params: Mapping[str, object] = field(default_factory=dict)
    sets: Mapping[tuple[int, int], IntervalSet] | None = None

    # -- basic geometry -----------------------------------------------

    def cell(self, n: int, k: int) -> Interval:
        self._check_index(n, k)
        return Interval(math.ldexp(k - 1, -n), math.ldexp(k, -n))

    def _check_index(self, n: int, k: int) -> None:
        if not (1 <= n <= self.depth):
            raise CarrierIndexError(f"level {n} outside 1..{self.depth}")
        if not (1 <= k <= (1 << n)):
            raise CarrierIndexError(f"index {k} outside 1..2^{n} at level {n}")

    def _greedy_rel(self, n: int) -> tuple[float, float]:
        """Relative carrier bounds inside a level-n cell (greedy-gap)."""
        t = self.depth - n
        if t == 0:
            return 0.25, 0.75
        half = math.ldexp(1.0, -(t + 3))
        return 0.5 - half, 0.5 + half

    # -- carrier access -------------------------------------------------

    def carrier(self, n: int, k: int) -> IntervalSet:
        """Explicit interval set of A(n, k); may be large for ``stratified``."""
        self._check_index(n, k)
        if self.scheme == EXPLICIT:
            assert self.sets is not None
            return self.sets[(n, k)]
        base = math.ldexp(k - 1, -n)
        if self.scheme == GREEDY_GAP:
            rl, rh = self._greedy_rel(n)
            return IntervalSet.of(
                Interval(base + math.ldexp(rl, -n), base + math.ldexp(rh, -n))
            )
        # stratified: one slice per level-depth subcell of the cell
        count = 1 << (self.depth - n)
        if count > DEFAULT_PART_LIMIT:
            raise MaterializationLimitError(
                f"carrier({n}, {k}) has {count} parts; use overlap()/measure instead"
            )
        s_lo = math.ldexp(1.0, -(self.depth + n))
        s_hi = math.ldexp(1.0, -(self.depth + n - 1))
        w = math.ldexp(1.0, -self.depth)
        parts = []
        for j in range(count):
            sub = base + j * w
            parts.append(Interval(sub + s_lo, sub + s_hi))
        return IntervalSet(parts)

    def carrier_measure(self, n: int, k: int) -> float:
        self._check_index(n, k)
        if self.scheme == GREEDY_GAP:
            if n == self.depth:
                return math.ldexp(1.0, -(n + 1))
            return math.ldexp(1.0, -(self.depth + 2))
        if self.scheme == STRATIFIED:
            return math.ldexp(1.0, -2 * n)
        assert self.sets is not None
        return self.sets[(n, k)].measure

    def overlap(self, n: int, k: int, lo: float, hi: float) -> float:
        """Measure of A(n, k) intersected with [lo, hi); O(1) for built-ins."""
        self._check_index(n, k)
        if hi <= lo:
            return 0.0
        if self.scheme == STRATIFIED:
            return self._stratified_overlap(n, math.ldexp(k - 1, -n), lo, hi)
        return self.carrier(n, k).clip(lo, hi).measure

    def level_ratio(self, n: int) -> Callable[[int, float, float], float]:
        """(k, lo, hi) -> overlap(n, k, lo, hi) / carrier_measure(n, k) at level n.

        Greedy-gap computes the level's carrier offsets and measure once
        here; the other schemes call ``overlap`` and ``carrier_measure``.
        """
        self._check_index(n, 1)
        if self.scheme != GREEDY_GAP:
            return lambda k, lo, hi: self.overlap(n, k, lo, hi) / self.carrier_measure(n, k)
        rl, rh = self._greedy_rel(n)
        width = math.ldexp(1.0, -n)  # (k - 1) * width is exact, like ldexp
        a, b = rl * width, rh * width
        measure = self.carrier_measure(n, 1)
        cells = 1 << n

        def ratio(k: int, lo: float, hi: float) -> float:
            if not 1 <= k <= cells:
                self._check_index(n, k)
            base = (k - 1) * width
            lo = max(lo, base + a)
            hi = min(hi, base + b)
            return (hi - lo) / measure if hi > lo else 0.0

        return ratio

    def _stratified_overlap(self, n: int, base: float, lo: float, hi: float) -> float:
        N = self.depth
        lo = max(lo, base)
        hi = min(hi, base + math.ldexp(1.0, -n))
        if hi <= lo:
            return 0.0
        slice_lo = math.ldexp(1.0, -(N + n))
        slice_len = slice_lo
        # Finest subcells fully inside [lo, hi) contribute one whole slice.
        j_first = math.ceil(math.ldexp(lo, N))  # first fully-contained index
        j_last = math.floor(math.ldexp(hi, N)) - 1  # last fully-contained index
        total = max(0, j_last - j_first + 1) * slice_len
        # At most two partially covered subcells at the ends.
        partial: set[int] = set()
        ja = math.floor(math.ldexp(lo, N))
        if ja < j_first:
            partial.add(ja)
        jb = math.floor(math.ldexp(hi, N))
        if jb > j_last and math.ldexp(jb, -N) < hi:
            partial.add(jb)
        for j in partial:
            a = math.ldexp(j, -N) + slice_lo
            b = a + slice_len
            total += max(0.0, min(hi, b) - max(lo, a))
        return total

    def locate(self, omega: float) -> tuple[int, int] | None:
        """(level, index) of the unique carrier containing omega, if any."""
        if not (0.0 <= omega < 1.0):
            raise ValueError(f"point {omega} outside [0, 1)")
        if self.scheme == GREEDY_GAP:
            for n in range(1, self.depth + 1):
                scaled = math.ldexp(omega, n)
                cell = math.floor(scaled)
                rel = scaled - cell
                rl, rh = self._greedy_rel(n)
                if rl <= rel < rh:
                    return n, cell + 1
            return None
        if self.scheme == STRATIFIED:
            scaled = math.ldexp(omega, self.depth)
            rel = scaled - math.floor(scaled)
            if rel <= 0.0:
                return None
            _, e = math.frexp(rel)  # rel in [2^(e-1), 2^e)
            n = 1 - e
            if not (1 <= n <= self.depth):
                return None
            return n, math.floor(math.ldexp(omega, n)) + 1
        assert self.sets is not None
        for (n, k), s in self.sets.items():
            if s.contains(omega):
                return n, k
        return None

    # -- aggregates -------------------------------------------------------

    def cells(self) -> Iterator[tuple[int, int]]:
        for n in range(1, self.depth + 1):
            for k in range(1, (1 << n) + 1):
                yield n, k

    def total_parts(self) -> int:
        if self.scheme == GREEDY_GAP:
            return (1 << (self.depth + 1)) - 2
        if self.scheme == STRATIFIED:
            return self.depth << self.depth
        assert self.sets is not None
        return sum(len(s) for s in self.sets.values())

    def occupied(self, part_limit: int = DEFAULT_PART_LIMIT) -> IntervalSet:
        """Union of all carriers; guarded against oversized materialization."""
        if self.total_parts() > part_limit:
            raise MaterializationLimitError(
                f"occupied() would materialize {self.total_parts()} parts"
            )
        acc: list[Interval] = []
        for n, k in self.cells():
            acc.extend(self.carrier(n, k).parts)
        return IntervalSet(acc)

    # -- serialization ------------------------------------------------------

    def to_json(self, part_limit: int = DEFAULT_PART_LIMIT) -> dict:
        """Schema: {depth, scheme, params, sets: {"n,k": [[lo, hi], ...]}}.

        Built-in schemes are fully determined by (depth, scheme, params);
        their sets are included only below the part budget and elided (with
        a marker) above it.
        """
        out: dict = {"depth": self.depth, "scheme": self.scheme, "params": dict(self.params)}
        if self.scheme != EXPLICIT and self.total_parts() > part_limit:
            out["sets_elided"] = True
            return out
        out["sets"] = {
            f"{n},{k}": self.carrier(n, k).to_pairs() for n, k in self.cells()
        }
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "CarrierFamily":
        try:
            depth = int(obj["depth"])
            scheme = str(obj["scheme"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed carrier archive: {exc}") from exc
        params = dict(obj.get("params") or {})
        if scheme == EXPLICIT:
            return cls.from_sets(depth, _parse_sets(obj.get("sets"), depth))
        if scheme not in (GREEDY_GAP, STRATIFIED):
            raise ConfigError(f"unknown carrier scheme {scheme!r} in archive")
        if obj.get("sets") and not obj.get("sets_elided"):
            # Sets shipped alongside a scheme tag are authoritative input;
            # they get verified like any hand-built family, so tampering
            # surfaces as a disjointness failure rather than silent reuse.
            return cls.from_sets(depth, _parse_sets(obj["sets"], depth), scheme=scheme)
        return allocate_carriers(depth, scheme, params)

    @classmethod
    def from_sets(
        cls,
        depth: int,
        sets: Mapping[tuple[int, int], IntervalSet],
        scheme: str = EXPLICIT,
    ) -> "CarrierFamily":
        if depth < 1:
            raise ConfigError(f"carrier depth must be >= 1, got {depth}")
        missing = [
            (n, k)
            for n in range(1, depth + 1)
            for k in range(1, (1 << n) + 1)
            if (n, k) not in sets
        ]
        if missing:
            raise ConfigError(f"carrier sets missing {len(missing)} cells, e.g. {missing[0]}")
        return cls(depth=depth, scheme=EXPLICIT, params={"source": scheme}, sets=dict(sets))


def _parse_sets(raw: object, depth: int) -> dict[tuple[int, int], IntervalSet]:
    if not isinstance(raw, Mapping):
        raise ConfigError("carrier archive has no usable 'sets' mapping")
    out: dict[tuple[int, int], IntervalSet] = {}
    for key, pairs in raw.items():
        try:
            n_s, k_s = str(key).split(",")
            n, k = int(n_s), int(k_s)
            out[(n, k)] = IntervalSet.from_pairs(pairs)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"malformed carrier entry {key!r}: {exc}") from exc
    return out


def allocate_carriers(
    depth: int, scheme: str = GREEDY_GAP, params: Mapping[str, object] | None = None
) -> CarrierFamily:
    """Deterministic family for the requested depth and scheme.

    Both built-in schemes allocate in closed form; the positivity floor is
    checked once per level (shortest component is 2^-(depth+1) for
    greedy-gap, 2^-2n for stratified, both far above 2^-80 at depth 40).
    """
    if not isinstance(depth, int) or depth < 1:
        raise ConfigError(f"carrier depth must be a positive integer, got {depth!r}")
    if scheme not in (GREEDY_GAP, STRATIFIED):
        raise ConfigError(f"unknown carrier scheme {scheme!r}; expected one of {_SCHEMES[:2]}")
    cap = MAX_STRATIFIED_DEPTH if scheme == STRATIFIED else MAX_DEPTH
    if depth > cap:
        raise ConfigError(f"scheme {scheme!r} supports depth <= {cap}, got {depth}")
    family = CarrierFamily(depth=depth, scheme=scheme, params=dict(params or {}))
    for n in range(1, depth + 1):
        if family.carrier_measure(n, 1) < POSITIVITY_FLOOR:
            raise AllocationExhaustedError(
                f"level {n} component below positivity floor at depth {depth}"
            )
    return family


# ---------------------------------------------------------------------------
# Disjointness verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointnessReport:
    passed: bool
    violations: tuple[tuple, ...]
    mode: str
    pairs_checked: int
    cells_checked: int

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "violations": [list(v) for v in self.violations],
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "cells_checked": self.cells_checked,
        }


def verify_disjointness(
    family: CarrierFamily,
    full_sweep_part_limit: int = 2_000_000,
    window_samples: int = 4096,
) -> DisjointnessReport:
    """Check pairwise disjointness, containment and positivity of a family.

    Small families (explicit ones, and built-ins whose total part count fits
    the budget) get a complete endpoint sweep over every carrier part.  For
    larger built-in families the same conclusion is reached by exact
    rational arithmetic over the closed-form relative geometry (covering
    every pair of levels and every relative cell position), plus an explicit
    interval sweep inside a deterministic sample of finest-level windows.
    """
    violations: list[tuple] = []
    if family.scheme == EXPLICIT or family.total_parts() <= full_sweep_part_limit:
        pairs, cells = _sweep_all(family, violations)
        mode = "full-sweep"
    elif family.scheme == GREEDY_GAP:
        pairs = _structural_greedy(family, violations)
        cells = _windowed_sweep(family, violations, window_samples)
        mode = "structural+windows"
    else:
        pairs = _structural_stratified(family, violations)
        cells = _windowed_sweep(family, violations, window_samples)
        mode = "structural+windows"
    return DisjointnessReport(
        passed=not violations,
        violations=tuple(violations),
        mode=mode,
        pairs_checked=pairs,
        cells_checked=cells,
    )


def _check_cell(family: CarrierFamily, n: int, k: int, violations: list[tuple]) -> IntervalSet:
    a = family.carrier(n, k)
    cell = family.cell(n, k)
    if a.measure <= 0.0:
        violations.append(("positivity", n, k))
    if not a.is_subset_of(IntervalSet.of(cell)):
        violations.append(("containment", n, k))
    return a


def _sweep_all(family: CarrierFamily, violations: list[tuple]) -> tuple[int, int]:
    events: list[tuple[float, float, int, int]] = []
    cells = 0
    for n, k in family.cells():
        a = _check_cell(family, n, k, violations)
        cells += 1
        events.extend((p.lo, p.hi, n, k) for p in a.parts)
    events.sort()
    pairs = 0
    prev_hi = -1.0
    prev_owner: tuple[int, int] | None = None
    for lo, hi, n, k in events:
        pairs += 1
        if prev_owner is not None and lo < prev_hi and (n, k) != prev_owner:
            violations.append(("overlap", prev_owner, (n, k)))
        if hi > prev_hi:
            prev_hi, prev_owner = hi, (n, k)
    return pairs, cells


def _structural_greedy(family: CarrierFamily, violations: list[tuple]) -> int:
    """Exact pairwise check via rational relative geometry.

    A level-m cell sits at relative offset j/2^(m-n) inside its level-n
    ancestor; the two carriers overlap positively iff an integer j exists
    with (j + cl_m) / S < cu_n and (j + cu_m) / S > cl_n, where S = 2^(m-n)
    and (cl, cu) are the per-level relative carrier bounds.  Checking every
    level pair covers every carrier pair of the family: carriers in
    non-nested cells cannot meet.
    """
    def rel(n: int) -> tuple[Fraction, Fraction]:
        t = family.depth - n
        if t == 0:
            return Fraction(1, 4), Fraction(3, 4)
        h = Fraction(1, 1 << (t + 3))
        return Fraction(1, 2) - h, Fraction(1, 2) + h

    pairs = 0
    for n in range(1, family.depth + 1):
        cl_n, cu_n = rel(n)
        if not (0 < cl_n < cu_n < 1):
            violations.append(("containment", n, 1))
        for m in range(n + 1, family.depth + 1):
            pairs += 1
            cl_m, cu_m = rel(m)
            S = 1 << (m - n)
            j_min = _frac_floor(cl_n * S - cu_m) + 1
            j_max = _frac_ceil(cu_n * S - cl_m) - 1
            j_min = max(j_min, 0)
            j_max = min(j_max, S - 1)
            if j_min <= j_max:
                violations.append(("overlap", (n, "*"), (m, f"offset {j_min}")))
    return pairs


def _structural_stratified(family: CarrierFamily, violations: list[tuple]) -> int:
    # Slices [2^-n, 2^-(n-1)) inside one finest subcell are pairwise disjoint
    # by construction; verify the arithmetic anyway.
    pairs = 0
    bounds = [
        (Fraction(1, 1 << n), Fraction(1, 1 << (n - 1))) for n in range(1, family.depth + 1)
    ]
    for i in range(len(bounds)):
        if not (0 < bounds[i][0] < bounds[i][1] <= 1):
            violations.append(("containment", i + 1, 1))
        for j in range(i + 1, len(bounds)):
            pairs += 1
            lo = max(bounds[i][0], bounds[j][0])
            hi = min(bounds[i][1], bounds[j][1])
            if lo < hi:
                violations.append(("overlap", (i + 1, "*"), (j + 1, "*")))
    return pairs


def _frac_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _windowed_sweep(
    family: CarrierFamily, violations: list[tuple], window_samples: int
) -> int:
    """Explicit sweep of every carrier part meeting sampled finest cells."""
    total = 1 << family.depth
    count = min(window_samples, total)
    stride = max(1, total // count)
    indices = sorted({1, total, *range(1, total + 1, stride)})
    checked = 0
    for idx in indices:
        w_lo = math.ldexp(idx - 1, -family.depth)
        w_hi = math.ldexp(idx, -family.depth)
        events: list[tuple[float, float, int, int]] = []
        kk = idx
        for n in range(family.depth, 0, -1):
            # Ancestor cell of this window at level n.
            a = family.carrier(n, kk) if family.scheme != STRATIFIED else None
            if a is None:
                # Stratified: only the slice inside the window is relevant.
                s_lo = w_lo + math.ldexp(1.0, -(family.depth + n))
                s_hi = w_lo + math.ldexp(1.0, -(family.depth + n - 1))
                events.append((s_lo, s_hi, n, kk))
            else:
                for p in a.parts:
                    lo, hi = max(p.lo, w_lo), min(p.hi, w_hi)
                    if lo < hi:
                        events.append((lo, hi, n, kk))
            checked += 1
            kk = (kk + 1) // 2
        events.sort()
        prev_hi = -1.0
        prev_owner: tuple[int, int] | None = None
        for lo, hi, n, k in events:
            if prev_owner is not None and lo < prev_hi and (n, k) != prev_owner:
                violations.append(("overlap", prev_owner, (n, k)))
            if hi > prev_hi:
                prev_hi, prev_owner = hi, (n, k)
    return checked
