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

``PettisModel.geometry`` keeps one flat tuple per realized level, built on
first use:

    (level, c, c**p, 2^level, width, a, b, measure)

where, on a level whose carriers are single slices of their cells (every
greedy-gap level and the deepest stratified one), ``width`` is the cell
width 2^-level, ``a`` and ``b`` the slice's offsets inside its cell and
``measure`` the carrier measure; all four are None on multi-slice levels
and explicit families.  The tail bound of each truncation level is kept on
the model too.  The model is frozen, so none of this can go stale, and each
value is the float a fresh computation gives, so enclosures stay
bit-identical.

The enclosure kernel takes one part [lo, hi) at a time, in one pass over
the levels.  The end cells' indices come from floor(lo * 2^level) and
ceil(hi * 2^level): multiplying by a power of two only moves the exponent,
so the product is exact (as ``ldexp`` is) and the indices are those of the
exact rationals.  An ``Interval`` lies in [0, 1) with lo < hi, which puts
both indices in 1..2^level at every level, so one check of lo >= 0 and
hi <= 1 per part replaces a check per level and cell.  The kernel counts the
whole cells, clips the at most two end cells (inline on single-slice
levels, through ``overlap`` elsewhere) and appends the level's norm term,
bit for bit the per-level ``fsum`` over the cover.  It returns only the
terms and the anomaly count; the cover, the per-level record of whole
counts and end-cell ratios, is filled only when a dict is handed in.  An
enclosure builds it on first read, except where the bounds needed it
anyway: a set of several parts merges its parts' covers in part order, and
p = infinity takes its lower bound from the largest coordinate, so those
enclosures keep the cover they built.
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

#: (level, c, c**p, 2^level, cell width, slice lo offset, slice hi offset,
#: carrier measure); the last four are None unless the level is single-slice.
_Level = tuple[int, float, float, float, float | None, float | None, float | None, float | None]


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
    def geometry(self) -> tuple[_Level, ...]:
        """(level, c, c**p, 2^level, width, a, b, measure) per realized level.

        Built on first use.  For a level whose carriers are single slices,
        ``width`` is the cell width 2^-level, ``a`` and ``b`` the slice's lo
        and hi offsets inside its cell and ``measure`` the carrier measure;
        multi-slice levels and explicit families have None in all four.
        """
        out = []
        for m in self.table.levels:
            c = self.table.coefficient(m)
            a, b, measure = self.carriers.single_slice(m) or (None, None, None)
            width = None if a is None else math.ldexp(1.0, -m)
            out.append((m, c, c**self.p, math.ldexp(1.0, m), width, a, b, measure))
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

    The truncated vector is the kernel's per-level cover of ``E``: per
    level, the number of cells lying wholly inside a part (coordinate c
    each) and the ratios of the end cells.  ``coefficient``, ``apply`` and
    ``to_block_vector`` read the end cells from the cover and decide whole-
    cell membership from ``E.parts`` when a coordinate is read.

    The bounds of a one-part set at finite p need only the norm terms, so
    ``cover`` is built the first time it is read, by running the kernel
    over ``E`` once more with a dict to fill; the kernel is deterministic,
    so that is the cover the bounds came from.  A set of several parts, or
    p = infinity, needs the cover for its bounds, and ``pettis_integral``
    hands over the one it built.  The cover is derived data: it is left out
    of equality and of the pickled state, so an enclosure pickles the same
    before and after its cover is read.
    """

    model: PettisModel
    lower: float
    upper: float
    tail: float
    clamp_anomalies: int
    E: IntervalSet = field(repr=False)
    N: int

    @cached_property
    def cover(self) -> _Cover:
        cover: _Cover = {}
        _level_cover(self.model, self.E.parts, self.N, cover)
        return cover

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("cover", None)
        return state

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
    model: PettisModel, lo: float, hi: float, N: int, cover: _Cover | None = None
) -> tuple[list[float], int]:
    """One part [lo, hi) in one pass over the realized levels <= N: the
    norm term of each level the part meets and the count of clamp anomalies.
    Given a dict, it also fills in the part's cover.

    At level n the part meets cells k1 = floor(lo * 2^n) + 1 through
    k2 = ceil(hi * 2^n).  ``geometry`` holds 2^n as a float, and multiplying
    by a power of two changes only the exponent, so lo * 2^n is exact (the
    same float ``ldexp`` gives) and the indices need no rounding guard.  A
    part with 0 <= lo < hi <= 1 has 1 <= k1 <= k2 <= 2^n at every level, so
    the cell indices are checked once per part: lo < 0 puts k1 below 1, and
    hi > 1 puts k2 above 2^n, at every level, so the first realized level
    raises the ``CarrierIndexError`` the per-cell checks would.

    The cells strictly between k1 and k2 lie inside the part and are only
    counted; the end cells k1 and k2 (one cell when k1 == k2) get ratios r1
    and r2, capped at 1.  On a single-slice level the end cell's carrier is
    [base + a, base + b) with base = (k - 1) * width exact, and the ratio is
    the clipped length divided once by the level's measure; other levels ask
    the carriers.  No ratio needs a clamp at 0: each is a clipped length
    (>= 0, inline or from ``overlap``) divided by a positive carrier measure.

    The term cp * (whole + (r1**p + r2**p)), a missing cell's r being 0.0,
    is the float cp * (whole + fsum(r**p over the nonzero ratios)): ``fsum``
    of at most two floats is their correctly rounded sum, as is one float
    addition, and adding 0.0 changes nothing.
    """
    floor, ceil = math.floor, math.ceil
    carriers = model.carriers
    geometry = model.geometry
    p = model.p
    if (lo < 0.0 or hi > 1.0) and geometry and geometry[0][0] <= N:
        level, scale = geometry[0][0], geometry[0][3]
        carriers._check_index(level, floor(lo * scale) + 1)
        carriers._check_index(level, ceil(hi * scale))
    terms = []
    anomalies = 0
    for level, c, cp, scale, width, a, b, measure in geometry:
        if level > N:
            break
        k1 = floor(lo * scale) + 1
        k2 = ceil(hi * scale)
        r2 = 0.0
        if width is None:
            r1 = carriers.overlap(level, k1, lo, hi) / carriers.carrier_measure(level, k1)
            if k2 != k1:
                r2 = carriers.overlap(level, k2, lo, hi) / carriers.carrier_measure(level, k2)
        else:
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
            terms.append(cp * (whole + (r1**p + r2**p)))
            if cover is not None:
                ratios = {k1: r1} if r1 else {}
                if r2:
                    ratios[k2] = r2
                cover[level] = (c, cp, whole, ratios)
    return terms, anomalies


def _level_cover(
    model: PettisModel, parts: tuple[Interval, ...], N: int, cover: _Cover | None = None
) -> tuple[list[float], int]:
    """The norm term of each realized level <= N that E meets, and the
    total count of clamp anomalies; given a dict, it also fills in E's cover.

    One part is ``_part_cover``.  Several parts' covers merge level by level
    in part order: whole counts add, and an end cell that several parts meet
    (each meets it with positive length, and the set is disjoint, so no part
    contains it whole) sums their nonnegative ratios, capped at 1 after each
    addition.  A merged level can hold more than two ratios, so its term is
    recomputed as cp * (whole + fsum(r**p over its ratios)).
    """
    if len(parts) == 1:
        return _part_cover(model, parts[0].lo, parts[0].hi, N, cover)
    p = model.p
    covers = []
    anomalies = 0
    for part in parts:
        covers.append({})
        anomalies += _part_cover(model, part.lo, part.hi, N, covers[-1])[1]
    terms = []
    for level, c, cp, *_ in model.geometry:
        if level > N:
            break
        whole, ratios = 0, {}
        for part_cover in covers:
            entry = part_cover.get(level)
            if entry:
                whole += entry[2]
                for k, r in entry[3].items():
                    ratios[k] = min(r + ratios[k], 1.0) if k in ratios else r
        if whole or ratios:
            terms.append(cp * (whole + math.fsum([r**p for r in ratios.values()])))
            if cover is not None:
                cover[level] = (c, cp, whole, ratios)
    return terms, anomalies


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
    p = model.p
    # Merging several parts builds the cover anyway, and p = inf reads its
    # bound from it; a one-part set at finite p leaves it to the first read.
    cover = {} if len(Eset.parts) > 1 or math.isinf(p) else None
    terms, anomalies = _level_cover(model, Eset.parts, N, cover)
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
    enc = IntegralEnclosure(model, lower, upper, tail, anomalies, E=Eset, N=N)
    if cover is not None:
        vars(enc)["cover"] = cover  # the cached value of the ``cover`` property
    return enc


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
    cover: _Cover = {}
    _level_cover(model, _as_interval_set(E).parts, model.depth, cover)
    return {
        n: c * (whole + math.fsum(ratios.values())) for n, (c, _, whole, ratios) in cover.items()
    }
