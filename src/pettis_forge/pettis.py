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
stay bit-identical.

The enclosure kernel takes one part [lo, hi) at a time, in one pass over
the levels: it counts the whole cells, clips the at most two end cells
(inline on single-slice levels, through ``overlap`` elsewhere) and appends
the level's norm term, bit for bit the per-level ``fsum`` over the cover.
A set of several parts merges its parts' covers in part order.
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


def _part_cover(
    model: PettisModel, lo: float, hi: float, N: int
) -> tuple[_Cover, list[float], int]:
    """One part [lo, hi) in one pass over the realized levels <= N: its
    cover, each covered level's norm term and the count of clamp anomalies.

    At level n the part meets cells k1 = floor(lo * 2^n) + 1 through
    k2 = ceil(hi * 2^n); scaling by 2^n is exact in binary floating point,
    so the indices need no rounding guard.  The cells strictly between lie
    inside the part and are only counted; the end cells k1 and k2 (one cell
    when k1 == k2) get ratios r1 and r2, capped at 1.  On a single-slice
    level the end cell's carrier is [base + a, base + b) with
    base = (k - 1) * width exact, and the ratio is the clipped length divided
    once by the level's measure; other levels ask the carriers.  No ratio
    needs a clamp at 0: each is a clipped length (>= 0, inline or from
    ``overlap``) divided by a positive carrier measure.

    The term cp * (whole + (r1**p + r2**p)), a missing cell's r being 0.0,
    is the float cp * (whole + fsum(r**p over the nonzero ratios)): ``fsum``
    of at most two floats is their correctly rounded sum, as is one float
    addition, and adding 0.0 changes nothing.
    """
    floor, ceil, ldexp = math.floor, math.ceil, math.ldexp
    carriers = model.carriers
    p = model.p
    cover: _Cover = {}
    terms = []
    anomalies = 0
    for level, c, cp, piece in model.geometry:
        if level > N:
            break
        k1 = floor(ldexp(lo, level)) + 1
        k2 = ceil(ldexp(hi, level))
        r2 = 0.0
        if piece is None:
            r1 = carriers.overlap(level, k1, lo, hi) / carriers.carrier_measure(level, k1)
            if k2 != k1:
                r2 = carriers.overlap(level, k2, lo, hi) / carriers.carrier_measure(level, k2)
        else:
            width, a, b, measure, cells = piece
            if k1 < 1 or k2 > cells:
                carriers._check_index(level, k1)
                carriers._check_index(level, k2)
            base = (k1 - 1) * width
            s_lo, s_hi = base + a, base + b
            s_lo = lo if lo > s_lo else s_lo
            s_hi = hi if hi < s_hi else s_hi
            r1 = (s_hi - s_lo) / measure if s_hi > s_lo else 0.0
            if k2 != k1:
                base = (k2 - 1) * width
                s_lo, s_hi = base + a, base + b
                s_lo = lo if lo > s_lo else s_lo
                s_hi = hi if hi < s_hi else s_hi
                r2 = (s_hi - s_lo) / measure if s_hi > s_lo else 0.0
        if r1 > 1.0 or r2 > 1.0:
            anomalies += (r1 > 1.0 + CLAMP_SLACK) + (r2 > 1.0 + CLAMP_SLACK)
            r1, r2 = min(r1, 1.0), min(r2, 1.0)
        whole = k2 - k1 - 1 if k2 - k1 >= 2 else 0
        if whole or r1 or r2:
            ratios = {k1: r1} if r1 else {}
            if r2:
                ratios[k2] = r2
            cover[level] = (c, cp, whole, ratios)
            terms.append(cp * (whole + (r1**p + r2**p)))
    return cover, terms, anomalies


def _level_cover(
    model: PettisModel, parts: tuple[Interval, ...], N: int
) -> tuple[_Cover, list[float], int]:
    """The cover of E at the realized levels <= N, the norm term of each
    covered level, and the total count of clamp anomalies.

    One part is ``_part_cover``.  Several parts' covers merge level by level
    in part order: whole counts add, and an end cell that several parts meet
    (each meets it with positive length, and the set is disjoint, so no part
    contains it whole) sums their nonnegative ratios, capped at 1 after each
    addition.  A merged level can hold more than two ratios, so its term is
    recomputed as cp * (whole + fsum(r**p over its ratios)).
    """
    if len(parts) == 1:
        return _part_cover(model, parts[0].lo, parts[0].hi, N)
    p = model.p
    covers = [_part_cover(model, part.lo, part.hi, N) for part in parts]
    merged: _Cover = {}
    terms = []
    for level, c, cp, _ in model.geometry:
        if level > N:
            break
        whole, ratios = 0, {}
        for cover, _, _ in covers:
            entry = cover.get(level)
            if entry:
                whole += entry[2]
                for k, r in entry[3].items():
                    ratios[k] = min(r + ratios[k], 1.0) if k in ratios else r
        if whole or ratios:
            merged[level] = (c, cp, whole, ratios)
            terms.append(cp * (whole + math.fsum([r**p for r in ratios.values()])))
    return merged, terms, sum(count for _, _, count in covers)


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
    cover, terms, anomalies = _level_cover(model, Eset.parts, N)
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
        total = math.fsum(terms)
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
    cover = _level_cover(model, _as_interval_set(E).parts, model.depth)[0]
    return {
        n: c * (whole + math.fsum(ratios.values())) for n, (c, _, whole, ratios) in cover.items()
    }
