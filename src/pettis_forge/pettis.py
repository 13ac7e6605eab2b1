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
beyond the depth carries the certified bound ``psi.tail_bound``, so each
integral comes with a [lower, upper] norm enclosure (see
``IntegralEnclosure``).  Assertions downstream always use the lower side.

``PettisModel.geometry`` keeps one flat tuple per realized level, built on
first use:

    (level, c, c**p, 2^level, d, w, s_lo, s_hi, measure)

where, on a built-in family, level n takes the slice [s_lo, s_hi) of each
of the 2^d level-a cells of width w = 2^-a inside a level-n cell (d = a - n,
0 on every greedy-gap level and the deepest stratified one) and
``measure`` is the carrier measure: the arguments of
``carriers.slice_overlap``.  All five are None on explicit families.  The
tail bound of each truncation level is kept on the model too.  The model is
frozen, so none of this can go stale, and each value is the float a fresh
computation gives, so enclosures stay bit-identical.

The integral is read two ways, each a frozen value built whole by its own
factory: ``pettis_integral`` gives the norm bounds (``IntegralEnclosure``)
and ``truncated_integral`` the coordinates (``TruncatedIntegral``); both
reduce the cover ``_cover`` builds.  The interval sweeps need only the two
bounds of one interval [lo, hi), and ``interval_bounds`` gives them as
floats, bit for bit those of ``pettis_integral(model, Interval(lo, hi))``:
at finite p with 0 <= lo < hi <= 1 it runs ``_part_terms``, whose norm
terms are the cover's, and the same final ``fsum`` and roots
(``_norm_bounds``), with no ``Interval``, ``IntervalSet``,
``IntegralEnclosure`` or cover built, and it hands every other input to
``pettis_integral``.

Both kernels make one pass over the realized levels, ``_cover`` up to the
truncation level N and ``_part_terms`` up to the model depth.  At level n a
part [lo, hi) meets cells k1 = floor(lo * 2^n) + 1 through
k2 = ceil(hi * 2^n): multiplying by a power of two only moves the exponent,
so the product is exact (as ``ldexp`` is) and the indices are those of the
exact rationals.  A part of an ``IntervalSet`` has 0 <= lo < hi <= 1
(``Interval`` checks the range, the set drops empty parts, and
``interval_bounds`` checks it inline), so 1 <= k1 <= k2 <= 2^n and no
kernel checks an index.  ``_cover`` builds the
cover, the per-level record of whole-cell counts and end-cell ratios;
``_part_terms`` runs one part at the model depth for its norm terms alone,
the floats the cover gives, which is all ``interval_bounds`` needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .blocks import BlockLayout, BlockVector, Functional
from .carriers import CarrierFamily, allocate_carriers, slice_overlap
from .errors import (
    DepthMismatchError,
    LayoutMismatchError,
    MaterializationLimitError,
    SupportDepthError,
)
from .intervals import Interval, IntervalSet
from .psi import CoefficientTable, PsiSpec, SequenceRule, coefficients, tail_bound


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
    def geometry(self) -> tuple[tuple, ...]:
        """(level, c, c**p, 2^level, d, w, s_lo, s_hi, measure) per realized level.

        Built on first use from ``CarrierFamily.pattern``'s (a, s_lo, s_hi,
        measure), with d = a - level and w = 2^-a; explicit families have
        None in the last five.
        """
        out = []
        for m in self.table.levels:
            c = self.table.coefficient(m)
            slices = (None,) * 5
            if (pattern := self.carriers.pattern(m)) is not None:
                a, s_lo, s_hi, measure = pattern
                slices = (a - m, math.ldexp(1.0, -a), s_lo, s_hi, measure)
            out.append((m, c, c**self.p, math.ldexp(1.0, m), *slices))
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
    """Certified norm enclosure of the weak integral of ``model``'s f over E:
    ``lower`` is the norm of the truncation at level ``N``, ``tail`` the
    certified bound on the levels past N, and ``upper`` adds it through
    p-additivity, so lower <= true norm <= upper.  Every step rounds to
    nearest, so ``lower`` can sit one ulp above the exact truncated norm."""

    model: PettisModel
    lower: float
    upper: float
    tail: float
    E: IntervalSet = field(repr=False)
    N: int

    def apply(self, x: Functional) -> float:
        """``truncated_integral(model, E, N).apply(x)``, one kernel run per call;
        the pairing span ``bench/tracer.py`` names.  No campaign calls it."""
        return truncated_integral(self.model, self.E, self.N).apply(x)


@dataclass(frozen=True)
class TruncatedIntegral:
    """The truncation at level ``N`` of the weak integral over E, by coordinate.

    ``cover`` is the dict ``_cover`` builds: per level, the number of cells
    lying wholly inside a part (coordinate c each) and the ratios of the
    end cells.  ``coefficient``, ``apply`` and ``to_block_vector`` read the
    end cells from it and decide whole-cell membership from ``E.parts``, so
    no read runs the kernel again.
    """

    model: PettisModel = field(repr=False)
    E: IntervalSet = field(repr=False)
    N: int
    cover: _Cover = field(repr=False)

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


def _domain(
    model: PettisModel, E: IntervalSet | Interval, truncate_at: int | None
) -> tuple[IntervalSet, int]:
    """E as an ``IntervalSet`` and the truncation level N, default the model depth."""
    N = model.depth if truncate_at is None else truncate_at
    if not (0 <= N <= model.depth):
        raise SupportDepthError(f"truncation level {N} outside 0..{model.depth}")
    return (IntervalSet.of(E) if isinstance(E, Interval) else E), N


def _cover(model: PettisModel, parts: tuple[Interval, ...], N: int) -> _Cover:
    """E's cover up to level N, in one pass over the realized levels <= N
    with the parts as the inner loop; no other code builds a cover.

    A part [lo, hi) meets cells k1 through k2 of level n (one when k1 == k2);
    the cells strictly between lie inside it and are only counted.  Each end
    cell's ratio is ``slice_overlap`` over the level's carrier measure on a
    built-in level, ``overlap`` over ``carrier_measure`` on an explicit one.
    No overlap is negative, and none exceeds the measure in floats, so with
    rounded division monotone every part's ratio lies in [0, 1] uncapped.
    Slice ends are exact floats and s_len = s_hi - s_lo a power of two:
    - inline single-slice clip (``_part_terms``, d = 0): the clipped ends
      x <= y lie inside the slice, so fl(y - x) <= fl(s_hi - s_lo), which is
      the measure exactly;
    - ``slice_overlap``: each end piece is at most s_len, (j - i) * s_len is
      exact and rounded addition is monotone, so the total is at most
      (j - i + 1) * s_len <= 2^d * s_len, the measure;
    - explicit ``overlap``: each clipped piece is at most its part's length
      and ``fsum`` is monotone, so clip().measure <= carrier_measure.
    The proof does not cover a sum of parts: an end cell that several parts
    meet (the set is disjoint, so none holds it whole) adds their ratios in
    part order, capping the sum at 1 after each addition.  A level enters
    the cover when it has a whole cell or a positive ratio; its ratios keep
    part order, k1 before k2 in a part.
    """
    floor, ceil = math.floor, math.ceil
    carriers = model.carriers
    cover: _Cover = {}
    for level, c, cp, scale, d, w, s_lo, s_hi, measure in model.geometry:
        if level > N:
            break
        whole, ratios = 0, {}
        for part in parts:
            lo, hi = part.lo, part.hi
            k1, k2 = floor(lo * scale) + 1, ceil(hi * scale)
            whole += k2 - k1 - 1 if k2 - k1 >= 2 else 0
            for k in (k1, k2) if k2 != k1 else (k1,):
                if d is None:
                    r = carriers.overlap(level, k, lo, hi) / carriers.carrier_measure(level, k)
                else:
                    r = slice_overlap(d, w, s_lo, s_hi, k, lo, hi) / measure
                if r:
                    ratios[k] = min(r + ratios[k], 1.0) if k in ratios else r
        if whole or ratios:
            cover[level] = (c, cp, whole, ratios)
    return cover


def _part_terms(model: PettisModel, lo: float, hi: float) -> list[float]:
    """The norm term of each realized level that the part [lo, hi) meets,
    with the cells and ratios of ``_cover`` but no cover: the bounds of a
    one-part set at finite p, which ``interval_bounds`` reads from it.

    On a single-slice level (d == 0, tested first) the clip is
    ``slice_overlap`` inlined: the carrier of cell k is [base + s_lo,
    base + s_hi) with base = (k - 1) * w exact.  This is the lower-bound
    campaign's hot loop, and a call per end cell made a one-part integral on
    the greedy-gap depth-24 model about 40% slower.  Multi-slice levels call
    ``slice_overlap``, explicit ones ``overlap`` and ``carrier_measure``.

    The part meets span = k2 - floor(lo * 2^n) cells, span - 2 of them whole
    when span >= 3.  The term is the float cp * (whole + fsum(r**p over the
    cover's ratios)) that ``pettis_integral`` computes from a cover:
    ``fsum`` of at most two floats is their correctly rounded sum, as is one
    float addition.  The inline clip skips the ``** p`` of a ratio that is
    exactly 0 (no overlap), which loses no bits: 0.0**p is 0.0 and adding
    +0.0 to a nonnegative float is exact, so t = r1**p (+ r2**p) is the same
    float either way.  The term is cp * ((span - 2) + t) when span >= 3 and
    cp * t otherwise; a level with t == 0.0 and no whole cell has the term
    0.0, which adds nothing to the ``fsum`` of the terms, so it is left out.
    """
    floor, ceil = math.floor, math.ceil
    carriers = model.carriers
    p = model.p
    terms = []
    for level, _, cp, scale, d, w, s_lo, s_hi, measure in model.geometry:
        k0 = floor(lo * scale)  # the part meets cells k0 + 1 through k2
        k2 = ceil(hi * scale)
        span = k2 - k0
        if d == 0:
            base = k0 * w
            x, y = base + s_lo, base + s_hi
            x = lo if lo > x else x
            y = hi if hi < y else y
            t = ((y - x) / measure) ** p if y > x else 0.0
            if span > 1:
                base = (k2 - 1) * w
                x, y = base + s_lo, base + s_hi
                x = lo if lo > x else x
                y = hi if hi < y else y
                if y > x:
                    t += ((y - x) / measure) ** p
        else:
            t = 0.0
            for k in (k0 + 1, k2) if span > 1 else (k2,):
                if d is None:
                    r = carriers.overlap(level, k, lo, hi) / carriers.carrier_measure(level, k)
                else:
                    r = slice_overlap(d, w, s_lo, s_hi, k, lo, hi) / measure
                t += r**p
        if span >= 3:
            terms.append(cp * ((span - 2) + t))
        elif t:
            terms.append(cp * t)
    return terms


def _norm_bounds(terms: list[float], tail: float, p: float) -> tuple[float, float]:
    """(lower, upper) at finite p from the level norm terms and the tail."""
    total = math.fsum(terms)
    return total ** (1.0 / p), (total + tail**p) ** (1.0 / p)


def interval_bounds(model: PettisModel, lo: float, hi: float) -> tuple[float, float]:
    """``(enc.lower, enc.upper)`` of ``pettis_integral(model, Interval(lo, hi))``,
    bit for bit, without building the interval, its set or the enclosure.

    With 0 <= lo < hi <= 1 at finite p, ``Interval(lo, hi)`` becomes the
    one-part set whose cover's norm terms ``_part_terms`` gives, so the
    bounds come from that kernel directly.  Every other input, lo == hi
    and p = inf included, goes through ``pettis_integral``, which raises
    the same ``ValueError`` on a bad range.
    """
    p = model.p
    if 0.0 <= lo < hi <= 1.0 and not math.isinf(p):
        return _norm_bounds(_part_terms(model, lo, hi), model.tail(model.depth), p)
    enc = pettis_integral(model, Interval(lo, hi))
    return enc.lower, enc.upper


def pettis_integral(
    model: PettisModel, E: IntervalSet | Interval, truncate_at: int | None = None
) -> IntegralEnclosure:
    """Certified enclosure of the weak integral of f over E.

    ``truncate_at``, any level from 0 to the model depth (the default),
    restricts the explicit part to levels <= that value; the tail bound moves
    accordingly, so for N1 < N2 the enclosure at N1 contains the truncated norm at N2.
    """
    Eset, N = _domain(model, E, truncate_at)
    p = model.p
    tail = model.tail(N)
    cover = _cover(model, Eset.parts, N)
    if math.isinf(p):
        lower = max((c * max([1.0 if whole else 0.0, *ratios.values()])
                     for c, _, whole, ratios in cover.values()), default=0.0)
        return IntegralEnclosure(model, lower, max(lower, tail), tail, E=Eset, N=N)
    terms = [
        cp * (whole + math.fsum([r**p for r in ratios.values()]))
        for _, cp, whole, ratios in cover.values()
    ]
    lower, upper = _norm_bounds(terms, tail, p)
    return IntegralEnclosure(model, lower, upper, tail, E=Eset, N=N)


def truncated_integral(
    model: PettisModel, E: IntervalSet | Interval, truncate_at: int | None = None
) -> TruncatedIntegral:
    """The truncation at ``truncate_at`` (default: the model depth) of the
    weak integral of f over E, with its cover built by one ``_cover`` run."""
    Eset, N = _domain(model, E, truncate_at)
    return TruncatedIntegral(model, Eset, N, _cover(model, Eset.parts, N))


def scalar_integral(model: PettisModel, x: Functional, E: IntervalSet | Interval) -> float:
    """Exact integral of the scalar function (x o f) over E.

    This is the independent oracle for the pairing identity.  Each
    coordinate's share mu(E n A) / mu(A) comes from ``CarrierFamily.share``:
    a closed form over the slice pattern for built-in families, set
    intersection for explicit ones, both giving the float the materialized
    intersection gives.  It never calls ``overlap``, ``pattern`` or
    ``slice_overlap``, the carrier geometry the enclosure path reads, so a
    fault there cannot hide by appearing on both sides of the identity.
    """
    if x.max_level() > model.depth:
        raise SupportDepthError(
            f"functional support reaches level {x.max_level()} beyond depth {model.depth}"
        )
    Eset, _ = _domain(model, E, None)
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
    cover = truncated_integral(model, E).cover
    return {
        n: c * (whole + math.fsum(ratios.values())) for n, (c, _, whole, ratios) in cover.items()
    }
