"""The step-carrier integrand, its weak integral, and certified enclosures.

The model function on [0, 1) is

    f(omega) = sum over realized levels m and cells k of
               c_m * 1_A(m,k)(omega) / mu(A(m,k)) * e(m, k),

where A(m, k) are the disjoint carriers and c_m the sparse coefficient
schedule.  Global carrier disjointness means f(omega) has at most one
nonzero coordinate, so pointwise evaluation and the pointwise norm are
exact, with no truncation error.

The weak integral over a finite interval union E is coordinatewise:

    coefficient at (m, k)  =  c_m * mu(E intersect A(m,k)) / mu(A(m,k)),

every coefficient lying in [0, c_m].  The truncation at the model depth is
evaluated in closed form per level (whole cells inside E count exactly 1,
at most two boundary cells per part need overlap arithmetic), and the tail
beyond the depth carries the certified geometric bound from the coefficient
table, so each integral comes with a sound [lower, upper] norm enclosure.
Assertions downstream always use the lower side.

Per-level constants and the tail bound of each truncation level are
computed on first use and kept on the model: the coefficient c and c**p,
and, for a level whose carriers are single slices of their cells (every
greedy-gap level and the deepest stratified one), the cell width, the two
slice offsets and the carrier measure.  The model is frozen, so they cannot
go stale, and each is the float a fresh computation gives, so enclosures
stay bit-identical.  On single-slice levels the kernel clips each end cell
against its slice inline; multi-slice levels and explicit families ask the
carriers for ``overlap`` and ``carrier_measure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .blocks import BlockLayout, BlockVector, Functional
from .carriers import CarrierFamily, allocate_carriers
from .errors import (
    DepthMismatchError,
    LayoutMismatchError,
    MaterializationLimitError,
    SupportDepthError,
)
from .intervals import Interval, IntervalSet
from .psi import CoefficientTable, PsiSpec, SequenceRule, coefficients, tail_bound

#: Ratios mu(E n A)/mu(A) beyond 1 by more than this are counted as anomalies.
CLAMP_SLACK = 1e-12

#: (cell width, slice lo offset, slice hi offset, carrier measure, cell count).
_Slice = tuple[float, float, float, float, int]


@dataclass(frozen=True)
class PettisModel:
    """Immutable bundle of carriers, coefficient schedule, and block layout."""

    carriers: CarrierFamily
    table: CoefficientTable
    layout: BlockLayout
    psi: PsiSpec
    rule: SequenceRule
    K: float
    p: float
    depth: int
    _tails: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def geometry(self) -> tuple[tuple[int, float, float, _Slice | None], ...]:
        """(level, c, c**p, slice) per realized level, built on first use.

        ``slice`` is (cell width 2^-level, lo offset, hi offset, carrier
        measure, 2^level) for a level whose carriers are single slices, and
        None for multi-slice levels and explicit families.
        """
        out = []
        for m in self.table.levels:
            c = self.table.coefficient(m)
            piece = self.carriers.single_slice(m)
            if piece is not None:
                piece = (math.ldexp(1.0, -m), *piece, 1 << m)
            out.append((m, c, c**self.p, piece))
        return tuple(out)

    def tail(self, N: int) -> float:
        """``tail_bound(table, N)``, computed once per N."""
        if N not in self._tails:
            self._tails[N] = tail_bound(self.table, N)
        return self._tails[N]

    def config_json(self) -> dict:
        return {
            "kind": "pettis",
            "psi": self.psi.to_json(),
            "K": self.K,
            "p": "inf" if math.isinf(self.p) else self.p,
            "rule": self.rule.to_json(),
            "depth": self.depth,
            "carriers": {"scheme": self.carriers.scheme},
        }


def build_model(
    carriers: CarrierFamily | None,
    spec: PsiSpec,
    K: float = 1.0,
    p: float = 2.0,
    rule: SequenceRule | None = None,
    depth: int = 24,
) -> PettisModel:
    """Validated model; growth failure and depth mismatches are errors."""
    if rule is None:
        rule = SequenceRule("affine")
    if carriers is None:
        carriers = allocate_carriers(depth)
    if carriers.depth != depth:
        raise DepthMismatchError(
            f"carrier family depth {carriers.depth} != model depth {depth}"
        )
    table = coefficients(spec, K=K, p=p, rule=rule, depth=depth)
    layout = BlockLayout.power_of_two(p, depth)
    return PettisModel(
        carriers=carriers,
        table=table,
        layout=layout,
        psi=spec,
        rule=rule,
        K=K,
        p=p,
        depth=depth,
    )


def evaluate_f(model: PettisModel, omega: float) -> BlockVector:
    """Exact pointwise value; at most one nonzero coordinate.

    Membership is decided against every allocated level, so there is no
    truncation error: omega either sits in exactly one carrier (giving the
    single coordinate c / mu(A)) or in none (giving the zero vector).
    """
    hit = model.carriers.locate(omega)
    if hit is None:
        return BlockVector(model.layout)
    n, k = hit
    c = model.table.coefficient(n)
    if c == 0.0:
        return BlockVector(model.layout)
    return BlockVector(model.layout, {(n, k): c / model.carriers.carrier_measure(n, k)})


# ---------------------------------------------------------------------------
# Integral enclosures
# ---------------------------------------------------------------------------


#: level -> (c, c**p, whole-cell count, end-cell ratios) for the levels E meets.
#: The whole cells themselves are read back from E's parts when needed.
_Cover = dict[int, tuple[float, float, int, dict[int, float]]]


@dataclass(frozen=True)
class IntegralEnclosure:
    """Truncated weak integral with a certified norm enclosure.

    ``lower`` is the exact norm of the truncation at level ``N``; ``upper``
    adds the geometric tail bound through p-additivity, so

        lower <= true norm <= upper.

    The truncated vector is kept as the kernel's per-level cover of ``E``:
    per level, the number of cells lying wholly inside a part (coordinate
    c each) and the ratios of the end cells.  ``coefficient``, ``apply`` and
    ``to_block_vector`` read the end cells from the cover and decide whole-
    cell membership from ``E.parts`` when a coordinate is read.
    """

    model: PettisModel
    lower: float
    upper: float
    tail: float
    clamp_anomalies: int
    E: IntervalSet = field(repr=False)
    N: int
    cover: _Cover = field(repr=False, compare=False)

    def coefficient(self, n: int, k: int) -> float:
        if n not in self.cover:
            return 0.0
        c, _, whole, ratios = self.cover[n]
        if whole and k not in ratios:  # an end cell is never whole
            # The kernel counts cell k as whole for a part iff lo < (k-1)/2^n
            # and k/2^n < hi; the parts are sorted, so no later one has lo < left.
            left, right = math.ldexp(k - 1, -n), math.ldexp(k, -n)
            for part in self.E.parts:
                if part.lo >= left:
                    break
                if part.hi > right:
                    return c
        return c * ratios.get(k, 0.0)

    def apply(self, x: Functional) -> float:
        """Pairing of a finite-support functional with the truncation."""
        if x.layout != self.model.layout:
            raise LayoutMismatchError("functional layout differs from the model layout")
        return math.fsum(w * self.coefficient(n, k) for (n, k), w in x.coeffs.items())

    def to_block_vector(self, max_coords: int = 250_000) -> BlockVector:
        total = sum(whole + len(ratios) for _, _, whole, ratios in self.cover.values())
        if total > max_coords:
            raise MaterializationLimitError(
                f"truncated vector has {total} coordinates; raise max_coords to materialize"
            )
        out: dict[tuple[int, int], float] = {}
        for n, (c, _, whole, ratios) in self.cover.items():
            if whole:
                for part in self.E.parts:
                    first = math.floor(math.ldexp(part.lo, n)) + 2
                    out.update(((n, k), c) for k in range(first, math.ceil(math.ldexp(part.hi, n))))
            out.update(((n, k), c * r) for k, r in ratios.items())
        return BlockVector(self.model.layout, out)


def _as_interval_set(E: IntervalSet | Interval) -> IntervalSet:
    if isinstance(E, Interval):
        return IntervalSet.of(E)
    return E


def _level_cover(model: PettisModel, parts: tuple[Interval, ...], N: int) -> tuple[_Cover, int]:
    """The cover of E at the realized levels <= N, plus the total count of
    clamp anomalies, in one pass over levels and parts.

    A part [lo, hi) meets cells k_first..k_last of a level.  The cells
    strictly between lie inside the part and count exactly 1, so they are
    only counted; the end cells need overlap arithmetic: each part adds its
    ratio, clamped to [0, 1], to its end cells, and each cell's sum is
    capped at 1 (the ratios are nonnegative, so capping every partial sum
    gives the same float).  A part meets its end cells with positive length,
    so no other part of the (disjoint) set contains them: every part meeting
    an end cell adds to it.  Scaling by 2^level is exact in binary floating
    point, so the indices need no rounding guard.

    On a single-slice level the end cell's carrier is [base + a, base + b)
    with base = (k - 1) * width exact, and the ratio is the clipped length
    divided once by the level's measure.  Other levels ask the carriers.
    """
    floor, ceil, ldexp = math.floor, math.ceil, math.ldexp
    carriers = model.carriers
    cover = {}
    anomalies = 0
    for level, c, cp, piece in model.geometry:
        if level > N:
            break
        if piece is not None:
            width, a, b, measure, cells = piece
        whole = 0
        ratios: dict[int, float] = {}
        for part in parts:
            lo, hi = part.lo, part.hi
            k_first = floor(ldexp(lo, level)) + 1
            k_last = ceil(ldexp(hi, level))
            if k_last - k_first >= 2:
                whole += k_last - k_first - 1
            for k in (k_first,) if k_first == k_last else (k_first, k_last):
                if piece is None:
                    r = carriers.overlap(level, k, lo, hi) / carriers.carrier_measure(level, k)
                else:
                    if not 1 <= k <= cells:
                        carriers._check_index(level, k)
                    base = (k - 1) * width
                    s_lo, s_hi = base + a, base + b
                    s_lo = lo if lo > s_lo else s_lo
                    s_hi = hi if hi < s_hi else s_hi
                    r = (s_hi - s_lo) / measure if s_hi > s_lo else 0.0
                if r > 1.0:
                    anomalies += r > 1.0 + CLAMP_SLACK
                    r = 1.0
                elif r < 0.0:
                    anomalies += r < -CLAMP_SLACK
                    r = 0.0
                if r:
                    if k in ratios:
                        r += ratios[k]
                        if r > 1.0:
                            r = 1.0
                    ratios[k] = r
        if whole or ratios:
            cover[level] = (c, cp, whole, ratios)
    return cover, anomalies


def pettis_integral(
    model: PettisModel, E: IntervalSet | Interval, truncate_at: int | None = None
) -> IntegralEnclosure:
    """Certified enclosure of the weak integral of f over E.

    ``truncate_at`` restricts the explicit part to levels <= that value
    (default: the model depth); the tail bound moves accordingly, so for
    N1 < N2 the enclosure at N1 contains the truncated norm at N2.
    """
    N = model.depth if truncate_at is None else truncate_at
    if not (0 <= N <= model.depth):
        raise SupportDepthError(f"truncation level {N} outside 0..{model.depth}")
    Eset = _as_interval_set(E)
    cover, anomalies = _level_cover(model, Eset.parts, N)
    p = model.p
    tail = model.tail(N)
    if math.isinf(p):
        lower = max(
            (c * max(1.0 if whole else 0.0, max(ratios.values(), default=0.0))
             for c, _, whole, ratios in cover.values()),
            default=0.0,
        )
        upper = max(lower, tail)
    else:
        total = math.fsum(
            cp * (whole + math.fsum(r**p for r in ratios.values()))
            for _, cp, whole, ratios in cover.values()
        )
        lower = total ** (1.0 / p)
        upper = (total + tail**p) ** (1.0 / p)
    return IntegralEnclosure(model, lower, upper, tail, anomalies, E=Eset, N=N, cover=cover)


def scalar_integral(model: PettisModel, x: Functional, E: IntervalSet | Interval) -> float:
    """Exact integral of the scalar function (x o f) over E.

    This is the independent oracle for the pairing identity.  Each
    coordinate's share mu(E n A) / mu(A) comes from ``CarrierFamily.share``:
    a closed form over the slice pattern for built-in families, set
    intersection for explicit ones, both giving the float the materialized
    intersection gives.  It never calls ``overlap`` or ``single_slice``, the
    carrier geometry the enclosure path reads, so a fault there cannot hide
    by appearing on both sides of the identity.
    """
    if x.max_level() > model.depth:
        raise SupportDepthError(
            f"functional support reaches level {x.max_level()} beyond depth {model.depth}"
        )
    Eset = _as_interval_set(E)
    total = []
    for (n, k), w in x.coeffs.items():
        c = model.table.coefficient(n)
        if c == 0.0:
            continue
        total.append(w * c * model.carriers.share(n, k, Eset))
    return math.fsum(total)


def bochner_level_masses(model: PettisModel, E: IntervalSet | Interval) -> dict[int, float]:
    """Per-level strong-norm mass: c_m * sum_k mu(E n A(m,k)) / mu(A(m,k)).

    Exact because carrier disjointness makes the pointwise norm single-
    coordinate.
    """
    cover, _ = _level_cover(model, _as_interval_set(E).parts, model.depth)
    return {
        n: c * (whole + math.fsum(ratios.values())) for n, (c, _, whole, ratios) in cover.items()
    }
