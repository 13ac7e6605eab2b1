"""Integrand model: pointwise values, enclosures, pairing oracle, strong sums."""

import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pettis_forge import (
    BlockVector,
    CarrierFamily,
    Functional,
    Interval,
    IntervalSet,
    PsiSpec,
    SequenceRule,
    allocate_carriers,
    build_model,
    evaluate_f,
    eval_psi_total,
    pettis_integral,
    scalar_integral,
    truncated_integral,
)
from pettis_forge import campaigns
from pettis_forge import pettis as pettis_module
from pettis_forge.errors import (
    DepthMismatchError,
    GrowthConditionError,
    SupportDepthError,
)
from pettis_forge.intervals import find_inner_dyadic
from pettis_forge.pettis import bochner_level_masses
from pettis_forge.psi import tail_bound

SPEC34 = PsiSpec("power", exponent=0.75)
UNIT = SequenceRule("affine")


def _random_interval_set(rng, parts_max=3):
    parts = rng.randint(1, parts_max)
    pts = sorted(rng.random() for _ in range(2 * parts))
    return IntervalSet.from_pairs([(pts[2 * i], pts[2 * i + 1]) for i in range(parts)])


def test_build_model_guards():
    with pytest.raises(GrowthConditionError):
        build_model(None, PsiSpec("power", exponent=0.5), depth=8)
    with pytest.raises(DepthMismatchError):
        build_model(allocate_carriers(6), SPEC34, depth=8)


def test_build_model_sup_norm_regime():
    model = build_model(None, PsiSpec("power", exponent=0.25), p=math.inf,
                        rule=SequenceRule("affine", a=4.0), depth=12)
    assert model.table.levels == (4, 8, 12)
    enc = pettis_integral(model, Interval(0.0, 1.0))
    # sup-norm block sum: the biggest single coefficient, plus a tail cap
    assert abs(enc.lower - model.table.coefficient(4)) < 1e-12
    assert enc.upper >= enc.lower


def test_evaluate_f_depth_one_examples():
    model = build_model(None, SPEC34, depth=1)
    v = evaluate_f(model, 0.2)  # inside the depth-1 carrier [0.125, 0.375)
    assert set(v.coeffs) == {(1, 1)}
    assert abs(v.coeffs[(1, 1)] - 2.0**2.5 / 0.25) < 1e-12
    assert abs(v.coeffs[(1, 1)] - 22.627416997969522) < 1e-9
    assert evaluate_f(model, 0.5) == BlockVector(model.layout)  # cell boundary, never allocated
    assert evaluate_f(model, 0.99999) == BlockVector(model.layout)


def test_evaluate_f_single_coordinate_everywhere():
    model = build_model(None, SPEC34, depth=10)
    rng = random.Random(8)
    hits = 0
    for _ in range(3000):
        v = evaluate_f(model, rng.random())
        assert len(v.coeffs) <= 1
        if v.coeffs:
            (n, k), val = next(iter(v.coeffs.items()))
            assert val == model.table.coefficient(n) / model.carriers.carrier_measure(n, k)
            hits += 1
    assert hits > 0


def test_pettis_integral_empty_and_full():
    model = build_model(None, SPEC34, depth=24)
    empty = pettis_integral(model, IntervalSet())
    assert empty.lower == 0.0
    assert empty.upper == empty.tail
    full = pettis_integral(model, Interval(0.0, 1.0))
    oracle = math.sqrt(math.fsum(2.0**6.5 * 2.0 ** (-n / 2) for n in range(1, 25)))
    assert abs(full.lower - oracle) < 1e-9
    assert full.lower <= full.upper
    # indices just outside a level name no cell: their coordinate is 0
    whole = truncated_integral(model, Interval(0.0, 1.0))
    for n in model.table.levels:
        assert whole.coefficient(n, 1) == whole.coefficient(n, 2**n) == model.table.coefficient(n)
        assert whole.coefficient(n, 0) == whole.coefficient(n, 2**n + 1) == 0.0


def test_pettis_integral_dyadic_floor():
    model = build_model(None, SPEC34, depth=24)
    enc = pettis_integral(model, Interval(0.5, 0.75))
    assert enc.lower >= eval_psi_total(SPEC34, 0.25) - 1e-12
    # the chain goes through the level right after the found cell
    d = find_inner_dyadic(Interval(0.5, 0.75))
    assert enc.lower >= model.table.coefficient(d.level + 1) - 1e-12


def test_enclosure_coefficients_in_range():
    model = build_model(None, SPEC34, depth=12)
    rng = random.Random(31)
    for _ in range(50):
        E = _random_interval_set(rng)
        trunc = truncated_integral(model, E)
        for n in model.table.levels:
            c = model.table.coefficient(n)
            for k in {1, 2, rng.randint(1, 1 << n), 1 << n}:
                assert 0.0 <= trunc.coefficient(n, k) <= c


def _family(kind, depth):
    if kind == "explicit":
        strat = allocate_carriers(depth, "stratified")
        return CarrierFamily.from_sets(depth, {nk: strat.carrier(*nk) for nk in strat.cells()})
    return allocate_carriers(depth, kind)


#: Sets whose parts share a deepest-level carrier: two or three parts meet
#: the greedy-gap level-8 carrier of cell 77, [0.2978515625, 0.2998046875),
#: or the stratified level-6 carrier of cell 20, [0.297119140625,
#: 0.29736328125), so that coordinate sums the ratios of several parts.
SHARED_END_CELLS = (
    IntervalSet.from_pairs([(0.25, 0.2985), (0.299, 0.8)]),
    IntervalSet.from_pairs([(0.25, 0.2981), (0.2984, 0.2988), (0.2992, 0.8)]),
    IntervalSet.from_pairs([(0.25, 0.2972), (0.2973, 0.8)]),
    IntervalSet.from_pairs([(0.25, 0.2972), (0.29725, 0.29728), (0.29732, 0.8)]),
)


@pytest.mark.parametrize(
    "kind, depth",
    [("greedy-gap", 8), ("stratified", 6), ("explicit", 6)],
    ids=["greedy-gap", "stratified", "explicit"],
)
def test_enclosure_against_explicit_interval_arithmetic(kind, depth):
    """Independent oracle: every coordinate of the truncated integral equals
    c * mu(E n A)/mu(A) computed with materialized sets and set intersection;
    so do the coordinates of ``to_block_vector``, the lower bound and the
    per-level Bochner masses."""
    model = build_model(_family(kind, depth), SPEC34, depth=depth)
    fam = model.carriers
    rng = random.Random(17)
    shared_cells = 0
    wide_levels = 0
    for E in SHARED_END_CELLS + tuple(_random_interval_set(rng) for _ in range(40)):
        trunc = truncated_integral(model, E)
        wide_levels += sum(len(ratios) >= 3 for _, _, _, ratios in trunc.cover.values())
        vec = trunc.to_block_vector().coeffs
        masses = bochner_level_masses(model, E)
        acc = 0.0
        for n in model.table.levels:
            c = model.table.coefficient(n)
            level_ratios = []
            for k in range(1, (1 << n) + 1):
                a = fam.carrier(n, k)
                ratio = a.intersect(E).measure / a.measure
                level_ratios.append(ratio)
                want = c * ratio
                assert abs(trunc.coefficient(n, k) - want) < 1e-12 * (1 + c), (n, k)
                assert abs(vec.get((n, k), 0.0) - want) < 1e-12 * (1 + c), (n, k)
                acc += want * want
                met = [p for p in E.parts if a.intersect(IntervalSet.of(p)).measure > 0.0]
                shared_cells += n == depth and len(met) >= 2
            mass = c * math.fsum(level_ratios)
            assert abs(masses.get(n, 0.0) - mass) < 1e-9 * (1 + mass), n
        assert set(vec) <= {(n, k) for n in model.table.levels for k in range(1, (1 << n) + 1)}
        assert abs(pettis_integral(model, E).lower - math.sqrt(acc)) < 1e-9
    # two of the fixed sets put several parts into one deepest-level carrier
    assert shared_cells >= 2
    # merged levels with three or more end cells, whose norm term is the fsum
    assert wide_levels >= 2


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", ["greedy-gap", "stratified", "explicit"])
def test_norm_terms_match_the_cover_sum(kind, p):
    """Two independent implementations agree.  On one-part sets the norm
    terms of ``_part_terms``, which clips as it goes and builds no cover,
    are bit for bit cp * (whole + fsum(r**p over the level's end-cell
    ratios)) read from the cover ``_cover`` builds at the model depth; on
    every set the bounds are those of the fsum of the cover's terms and the
    cover is the truncation's."""
    model = build_model(_family(kind, 8), SPEC34, p=p, depth=8)
    rng = random.Random(41)

    def terms_of(cover):
        return [
            cp * (whole + math.fsum(r**p for r in ratios.values()))
            for _, cp, whole, ratios in cover.values()
        ]

    one_part = 0
    for E in SHARED_END_CELLS + tuple(_random_interval_set(rng, 4) for _ in range(300)):
        N = rng.choice([8, rng.randint(1, 8)])
        enc = pettis_integral(model, E, truncate_at=N)
        cover = pettis_module._cover(model, E.parts, N)
        want = terms_of(cover)
        assert cover == truncated_integral(model, E, truncate_at=N).cover, (E, N)
        if len(E.parts) == 1:
            one_part += 1
            full = terms_of(pettis_module._cover(model, E.parts, model.depth))
            terms = pettis_module._part_terms(model, E.parts[0].lo, E.parts[0].hi)
            assert [t.hex() for t in terms] == [t.hex() for t in full], E
        total = math.fsum(want)
        assert enc.lower.hex() == (total ** (1.0 / p)).hex(), (E, N)
        assert enc.upper.hex() == ((total + enc.tail**p) ** (1.0 / p)).hex(), (E, N)
    assert one_part >= 50


@pytest.mark.parametrize(
    "kind, depth",
    [("greedy-gap", 12), ("stratified", 8), ("explicit", 6)],
    ids=["greedy-gap", "stratified", "explicit"],
)
def test_end_cells_match_overlap_bits(kind, depth):
    """Each end cell of a one-part interval carries c * (overlap /
    carrier_measure) bit for bit, whether the kernel clips the cell's slice
    inline (single-slice levels) or asks the carriers (the others)."""
    model = build_model(_family(kind, depth), SPEC34, depth=depth)
    fam = model.carriers
    rng = random.Random(59)
    for _ in range(150):
        if rng.random() < 0.5:
            lo, hi = sorted((rng.random(), rng.random()))
        else:  # endpoints on slice ends of random levels
            ends = []
            for _ in range(2):
                n = rng.randint(1, depth)
                cell = fam.carrier(n, rng.randint(1, 1 << n)).parts
                part = rng.choice(cell)
                ends.append(rng.choice((part.lo, part.hi)))
            lo, hi = sorted(ends)
        if hi <= lo:
            continue
        trunc = truncated_integral(model, Interval(lo, hi))
        for n in model.table.levels:
            c = model.table.coefficient(n)
            for k in {math.floor(math.ldexp(lo, n)) + 1, math.ceil(math.ldexp(hi, n))}:
                want = c * (fam.overlap(n, k, lo, hi) / fam.carrier_measure(n, k))
                assert trunc.coefficient(n, k).hex() == want.hex(), (n, k, lo, hi)


def _slice_end(rng, family):
    """An end of a random carrier part, or the float one ulp either side."""
    n = rng.randint(1, family.depth)
    part = rng.choice(family.carrier(n, rng.randint(1, 1 << n)).parts)
    x = rng.choice((part.lo, part.hi))
    return min(1.0, rng.choice((x, math.nextafter(x, 0.0), math.nextafter(x, 1.0))))


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf], ids=["p2", "p3", "pinf"])
@pytest.mark.parametrize("kind", ["greedy-gap", "stratified", "explicit"])
def test_interval_bounds_match_pettis_integral_bits(kind, p):
    """``interval_bounds(model, lo, hi)`` is ``(enc.lower, enc.upper)`` of
    ``pettis_integral(model, Interval(lo, hi))`` bit for bit: on dyadic
    cells, seeded random intervals, ends on or one ulp beside a slice end,
    and lo in 2^-80..2^-30 inside cell 1.  At finite p the two sides run
    different kernels, ``_part_terms`` and ``_cover``.  A range that
    ``Interval`` refuses raises the same ValueError, and lo == hi gives the
    empty set's bounds."""
    depth = 10
    model = build_model(_family(kind, depth), SPEC34, p=p, depth=depth)
    rng = random.Random(f"bounds-{kind}-{p}")
    cases = []
    for _ in range(60):
        m = rng.randint(0, depth + 2)
        k = rng.randint(1, 1 << m)
        cases.append((math.ldexp(k - 1, -m), math.ldexp(k, -m)))
        cases.append(tuple(sorted((rng.random(), rng.random()))))
        cases.append(tuple(sorted((_slice_end(rng, model.carriers), _slice_end(rng, model.carriers)))))
        cases.append((math.ldexp(rng.random(), -rng.randint(30, 80)), _slice_end(rng, model.carriers)))
    checked = 0
    for lo, hi in cases:
        if not lo < hi:
            continue
        enc = pettis_integral(model, Interval(lo, hi))
        lower, upper = pettis_module.interval_bounds(model, lo, hi)
        assert (lower.hex(), upper.hex()) == (enc.lower.hex(), enc.upper.hex()), (lo, hi)
        checked += 1
    assert checked >= 200
    for lo, hi in ((0.5, 0.25), (0.25, 1.5), (-0.25, 0.5), (math.nan, 0.5)):
        with pytest.raises(ValueError) as want:
            Interval(lo, hi)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            pettis_integral(model, Interval(lo, hi))
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            pettis_module.interval_bounds(model, lo, hi)
    for x in (0.0, 0.3, 1.0):
        enc = pettis_integral(model, Interval(x, x))
        assert enc.lower == 0.0
        assert pettis_module.interval_bounds(model, x, x) == (enc.lower, enc.upper)


#: (scheme, depth, p, explicit copy) of the adversarial ratio corpora.
RATIO_CORPORA = (
    ("greedy-gap", 24, 2.0, False),
    ("greedy-gap", 40, 2.0, False),
    ("stratified", 20, 2.0, False),
    ("stratified", 26, 3.0, False),
    ("greedy-gap", 10, 2.0, True),
    ("stratified", 10, 2.0, True),
)


@pytest.mark.parametrize(
    "scheme, depth, p, explicit",
    RATIO_CORPORA,
    ids=[f"{s}-{d}{'-explicit' if e else ''}" for s, d, _, e in RATIO_CORPORA],
)
def test_part_ratio_at_most_one_uncapped(scheme, depth, p, explicit):
    """No part's end-cell ratio exceeds 1, which both kernels rely on with
    no cap (``_cover``'s docstring has the proof).  Each one-part interval
    has its ends on a slice end of a random level or one ulp either side,
    or lies in cell 1 with lo far below the level-a cell width, where
    ``slice_overlap``'s sum may round.  Its cover holds the raw ratios, and
    ``_part_terms``, which clips single-slice levels inline, gives the
    cover's terms bit for bit."""
    built_in = allocate_carriers(depth, scheme)
    for n in range(1, depth + 1):  # the proof's premise: the measure is 2^d * s_len
        a, s_lo, s_hi, measure = built_in.pattern(n)
        assert measure == math.ldexp(s_hi - s_lo, a - n), n
    family = built_in
    if explicit:
        family = CarrierFamily.from_sets(depth, {nk: built_in.carrier(*nk) for nk in built_in.cells()})
    model = build_model(family, SPEC34, p=p, depth=depth)
    rng = random.Random(f"ratio-{scheme}-{depth}-{explicit}")

    def slice_end():
        a, s_lo, s_hi, _ = built_in.pattern(rng.randint(1, depth))
        x = math.ldexp(rng.randrange(1 << a), -a) + rng.choice((s_lo, s_hi))
        return min(1.0, rng.choice((x, math.nextafter(x, 0.0), math.nextafter(x, 1.0))))

    checks = ones = 0
    for i in range(200):
        if i % 4:
            lo, hi = sorted((slice_end(), slice_end()))
        else:
            lo, hi = math.ldexp(rng.random(), -rng.randint(30, 80)), slice_end()
        if hi <= lo:
            continue
        cover = pettis_module._cover(model, (Interval(lo, hi),), depth)
        ratios = [r for _, _, _, level in cover.values() for r in level.values()]
        assert max(ratios, default=0.0) <= 1.0, (lo, hi)
        checks += len(ratios)
        ones += ratios.count(1.0)
        want = [cp * (whole + math.fsum(r**p for r in level.values()))
                for _, cp, whole, level in cover.values()]
        assert pettis_module._part_terms(model, lo, hi) == want, (lo, hi)
    # the corpus reaches ratio 1 exactly, where any excess would show
    assert checks >= 1000 and ones >= 10, (checks, ones)


def test_tail_bound_evaluated_once_per_truncation(monkeypatch):
    calls = []

    def counting_tail_bound(table, N):
        calls.append(N)
        return tail_bound(table, N)

    monkeypatch.setattr(pettis_module, "tail_bound", counting_tail_bound)
    model = build_model(None, SPEC34, depth=12)
    twin = build_model(None, SPEC34, depth=12)
    rng = random.Random(3)
    for i in range(1000):
        enc = pettis_integral(model, _random_interval_set(rng), truncate_at=(12, 9, 6)[i % 3])
        assert enc.tail == tail_bound(model.table, enc.N)
    assert sorted(calls) == [6, 9, 12]
    # the caches change neither equality, the serialized form nor pickling
    assert model == twin and model.config_json() == twin.config_json()
    restored = pickle.loads(pickle.dumps(model))
    assert restored == twin
    assert pettis_integral(restored, enc.E).lower == pettis_integral(twin, enc.E).lower


def test_interval_sets_explicit_families_and_enclosures_pickle():
    """Families, models whose per-level geometry is built, enclosures and
    truncations survive a pickle round trip; a truncation compares equal
    after it, cover included."""
    for kind in ("greedy-gap", "stratified", "explicit"):
        family = _family(kind, 6)
        model = build_model(family, SPEC34, depth=6)
        for E in (IntervalSet.of(Interval(0.1, 0.3), Interval(0.55, 0.8)), Interval(0.1, 0.3)):
            enc = pettis_integral(model, E)
            trunc = truncated_integral(model, E)
            assert "geometry" in vars(model)
            for obj in (enc.E, family, model, enc, trunc):
                assert pickle.loads(pickle.dumps(obj)) == obj
            restored = pickle.loads(pickle.dumps(trunc))
            assert restored.cover == trunc.cover and restored.model == model
            again = pickle.loads(pickle.dumps(model))
            assert pettis_integral(again, E) == enc and truncated_integral(again, E) == trunc


def test_enclosures_that_need_the_cover_run_the_kernel_once_per_part(monkeypatch):
    """``pettis_integral`` runs ``_cover`` once on every set, and never
    ``_part_terms``.  ``interval_bounds`` at finite p runs ``_part_terms``
    once and never ``_cover``, so a lower-bound sweep runs one kernel per row.
    ``truncated_integral`` runs ``_cover`` once, and reading its coordinates
    runs no kernel again.  A whole pairing campaign runs ``_cover`` once per
    interval set and never ``_part_terms``."""
    calls, cover_parts = [], []
    for name in ("_part_terms", "_cover"):
        kernel = getattr(pettis_module, name)

        def counting(*args, name=name, kernel=kernel):
            calls.append(name)
            if name == "_cover":
                cover_parts.append(len(args[1]))
            return kernel(*args)

        monkeypatch.setattr(pettis_module, name, counting)

    def runs():
        return calls.count("_part_terms"), calls.count("_cover")

    finite = build_model(None, SPEC34, depth=10)
    sup = build_model(None, SPEC34, p=math.inf, depth=10)
    two = IntervalSet.of(Interval(0.1, 0.3), Interval(0.55, 0.8))
    for model, E, bounds in (
        (finite, two, (0, 1)),
        (sup, two, (0, 1)),
        (sup, Interval(0.1, 0.3), (0, 1)),
        (finite, Interval(0.1, 0.3), (0, 1)),
        (finite, IntervalSet(), (0, 1)),
    ):
        calls.clear()
        pettis_integral(model, E)
        assert runs() == bounds, (model.p, E)
        calls.clear()
        trunc = truncated_integral(model, E)
        assert runs() == (0, 1), (model.p, E)
        trunc.coefficient(3, 2)
        trunc.apply(Functional(model.layout, {(3, 2): 1.0, (10, 300): -0.5}))
        trunc.to_block_vector()
        assert runs() == (0, 1), (model.p, E)
    for model, lo, hi, bounds in (
        (finite, 0.1, 0.3, (1, 0)),
        (finite, 0.0, 1.0, (1, 0)),
        (finite, 0.3, 0.3, (0, 1)),  # empty: through pettis_integral
        (sup, 0.1, 0.3, (0, 1)),
    ):
        calls.clear()
        pettis_module.interval_bounds(model, lo, hi)
        assert runs() == bounds, (model.p, lo, hi)
    calls.clear()
    report = campaigns.run_lower_bound_sweep(
        finite, campaigns.CampaignConfig(kind="lower-bound", samples=40, dyadic_level=3, seed=5)
    )
    assert report.violations == 0 and runs() == (len(report.rows), 0)
    for scheme, sets in (("greedy-gap", 8), ("stratified", 5)):
        model = build_model(allocate_carriers(10, scheme), SPEC34, depth=10)
        calls.clear()
        cover_parts.clear()
        report = campaigns.run_pairing_check(
            model, campaigns.CampaignConfig(kind="pairing", samples=30, sets=sets, seed=5)
        )
        assert report.summary["interval_sets"] == sets and report.violations == 0
        assert runs() == (0, sets) and 1 in cover_parts, (scheme, cover_parts)


def test_pairing_identity_two_code_paths():
    model = build_model(None, SPEC34, depth=12)
    rng = random.Random(23)
    for _ in range(60):
        E = _random_interval_set(rng)
        trunc = truncated_integral(model, E)
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 12)
            coeffs[(n, rng.randint(1, 1 << n))] = rng.uniform(-1, 1)
        x = Functional(model.layout, coeffs)
        lhs = trunc.apply(x)
        assert pettis_integral(model, E).apply(x) == lhs
        rhs = scalar_integral(model, x, E)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + x.dual_norm())


def test_scalar_integral_examples():
    model = build_model(None, SPEC34, depth=8)
    unit = Functional(model.layout, {(1, 1): 1.0})
    assert abs(scalar_integral(model, unit, Interval(0.0, 1.0)) - model.table.coefficient(1)) < 1e-12
    assert scalar_integral(model, unit, IntervalSet()) == 0.0
    # support disjoint from E: the level-8 carrier inside [0, 2^-8) vs far E
    x = Functional(model.layout, {(8, 1): 1.0})
    assert scalar_integral(model, x, Interval(0.5, 0.625)) == 0.0
    zero = Functional(model.layout, {})
    assert scalar_integral(model, zero, Interval(0.0, 1.0)) == 0.0


def test_scalar_integral_support_guard():
    model = build_model(None, SPEC34, depth=8)
    deep_layout_model = build_model(None, SPEC34, depth=10)
    x = Functional(deep_layout_model.layout, {(10, 1): 1.0})
    with pytest.raises(SupportDepthError):
        scalar_integral(model, x, Interval(0.0, 1.0))


@st.composite
def _share_cases(draw):
    """A built-in family of depth <= 10, one of its cells, and a set E whose
    parts end on slice ends, lie in the gap before a slice, span many
    level-a cells, stay inside the cell, or fall anywhere (so often miss it)."""
    scheme = draw(st.sampled_from(["stratified", "greedy-gap"]))
    family = allocate_carriers(draw(st.integers(1, 10)), scheme)
    n = draw(st.integers(1, family.depth))
    k = draw(st.integers(1, 1 << n))
    a, _, _, s_lo, s_hi = family._slices[n - 1]
    sub = st.integers(0, (1 << a) - 1).map(lambda i: math.ldexp(i, -a))
    unit = st.floats(0.0, 1.0)
    cell = family.cell(n, k)
    slice_end = st.tuples(sub, st.sampled_from([s_lo, s_hi])).map(sum)
    part = st.one_of(
        st.tuples(slice_end, slice_end),
        st.tuples(sub, unit, unit).map(lambda t: (t[0] + s_lo * t[1], t[0] + s_lo * t[2])),
        st.tuples(unit, unit),
        st.tuples(unit, unit).map(lambda t: tuple(cell.lo + u * (cell.hi - cell.lo) for u in t)),
    )
    parts = draw(st.lists(part, min_size=0, max_size=5))
    return family, n, k, IntervalSet.from_pairs(sorted(p) for p in parts)


@settings(max_examples=400, deadline=None)
@given(_share_cases())
def test_share_matches_materialized_intersection_bits(case):
    """The closed-form share is the float the materialized intersection gives."""
    family, n, k, E = case
    carrier = family.carrier(n, k)
    want = carrier.intersect(E).measure / carrier.measure
    assert family.share(n, k, E).hex() == want.hex()


def test_scalar_integral_explicit_copy_same_bits():
    """An explicit copy of a built-in family intersects its stored sets; the
    built-in takes the closed form.  Both give the same bits."""
    built_in = build_model(allocate_carriers(6, "stratified"), SPEC34, depth=6)
    copy = build_model(_family("explicit", 6), SPEC34, depth=6)
    rng = random.Random(41)
    for E in SHARED_END_CELLS + tuple(_random_interval_set(rng) for _ in range(40)):
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 6)
            coeffs[(n, rng.randint(1, 1 << n))] = rng.uniform(-1, 1)
        x = Functional(built_in.layout, coeffs)
        assert scalar_integral(built_in, x, E).hex() == scalar_integral(copy, x, E).hex()


def test_enclosure_nesting_across_truncations():
    # Within one model, a shallower truncation's enclosure contains every
    # deeper truncation's exact norm.
    model = build_model(None, SPEC34, depth=16)
    rng = random.Random(41)
    for _ in range(25):
        a, b = sorted((rng.random(), rng.random()))
        if b - a < 2.0**-8:
            continue
        iv = Interval(a, b)
        enc_12 = pettis_integral(model, iv, truncate_at=12)
        enc_16 = pettis_integral(model, iv)
        assert enc_12.lower <= enc_16.lower + 1e-12
        assert enc_16.lower <= enc_12.upper + 1e-12
        assert enc_16.upper <= enc_12.upper + 1e-12


#: psi is nearly flat on [2^-8, 4] and 4s below: the growth terms grow
#: through term 10 and fall by 2^(1/p - 1) from term 11 on, so n0 = 11.
FLAT_HEAD = PsiSpec("custom-table", knots=((0.0, 0.0), (2.0**-8, 2.0**-6), (4.0, 2.0**-5)))


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", ["greedy-gap", "stratified", "explicit"])
def test_every_truncation_level_encloses_the_full_depth_norm(kind, p):
    """A truncation below p_n0 adds the growth terms before n0 to its tail
    as they are, so its enclosure still holds the norm at full depth."""
    family = allocate_carriers(16, "stratified" if kind == "stratified" else "greedy-gap")
    if kind == "explicit":  # a greedy-gap copy: a stratified one this deep takes minutes
        family = CarrierFamily.from_sets(16, {nk: family.carrier(*nk) for nk in family.cells()})
    model = build_model(family, FLAT_HEAD, p=p, depth=16)
    assert model.table.certificate.n0 == 11
    rng = random.Random(29)
    for _ in range(200):
        E = _random_interval_set(rng)
        lower = pettis_integral(model, E).lower
        for N in range(17):
            assert pettis_integral(model, E, truncate_at=N).upper >= lower, (E, N)


def test_to_block_vector_round_trip_small():
    model = build_model(None, SPEC34, depth=6)
    # Both parts end inside the level-6 carrier of cell 20, [0.30078125, 0.30859375),
    # so that cell's coordinate sums the ratios of two parts.
    E = IntervalSet.from_pairs([(0.25, 0.303), (0.306, 0.8)])
    trunc = truncated_integral(model, E)
    v = trunc.to_block_vector()
    for (n, k), val in v.coeffs.items():
        assert abs(val - trunc.coefficient(n, k)) < 1e-15
    assert abs(v.norm() - pettis_integral(model, E).lower) < 1e-12
    a = model.carriers.carrier(6, 20)
    shared = model.table.coefficient(6) * a.intersect(E).measure / a.measure
    assert 0.0 < shared < model.table.coefficient(6)
    assert abs(v.coeffs[(6, 20)] - shared) < 1e-12


def _strong_partial_sum(model, E, N):
    """Integral over E of the norm of f restricted to levels <= N."""
    return math.fsum(v for n, v in bochner_level_masses(model, E).items() if n <= N)


def test_bochner_full_space_closed_form():
    model = build_model(None, SPEC34, depth=24)
    full = Interval(0.0, 1.0)
    for N in (1, 4, 12, 24):
        want = math.fsum(2.0 ** (13 / 4 + n / 4) for n in range(1, N + 1))
        got = _strong_partial_sum(model, full, N)
        assert abs(got - want) <= 1e-9 * want
    # monotone nondecreasing in N
    seq = [_strong_partial_sum(model, full, N) for N in range(0, 25)]
    assert seq[0] == 0.0
    assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_bochner_matches_explicit_at_small_depth():
    model = build_model(None, SPEC34, depth=8)
    fam = model.carriers
    rng = random.Random(6)
    for _ in range(20):
        E = _random_interval_set(rng)
        masses = bochner_level_masses(model, E)
        for n in model.table.levels:
            c = model.table.coefficient(n)
            want = c * math.fsum(
                fam.carrier(n, k).intersect(E).measure / fam.carrier(n, k).measure
                for k in range(1, (1 << n) + 1)
            )
            assert abs(masses.get(n, 0.0) - want) < 1e-9 * (1 + want)


def test_bochner_empty_set():
    model = build_model(None, SPEC34, depth=8)
    assert bochner_level_masses(model, IntervalSet()) == {}


def test_stratified_backend_agrees_on_enclosures():
    greedy = build_model(None, SPEC34, depth=8)
    strat = build_model(allocate_carriers(8, "stratified"), SPEC34, depth=8)
    # same coefficients, same full-cell ratios: identical full-space norm
    a = pettis_integral(greedy, Interval(0.0, 1.0))
    b = pettis_integral(strat, Interval(0.0, 1.0))
    assert abs(a.lower - b.lower) < 1e-12
    # and the interval lower bound holds for both backends
    for iv in (Interval(0.3, 0.8), Interval(0.1, 0.15)):
        for model in (greedy, strat):
            enc = pettis_integral(model, iv)
            assert enc.lower >= eval_psi_total(SPEC34, iv.measure) - 1e-12
