"""Interval algebra: exact dyadic cells, canonical set arithmetic, inner-cell finder."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pettis_forge import (
    DyadicIndex,
    Interval,
    IntervalSet,
    dyadic_interval,
    find_inner_dyadic,
)
from pettis_forge.errors import DegenerateIntervalError, LevelOverflowError


def test_dyadic_interval_examples():
    assert dyadic_interval(DyadicIndex(2, 3)) == Interval(0.5, 0.75)
    assert dyadic_interval(DyadicIndex(0, 1)) == Interval(0.0, 1.0)
    assert dyadic_interval(DyadicIndex(3, 1)) == Interval(0.0, 0.125)


def test_dyadic_interval_level_cap():
    assert dyadic_interval(DyadicIndex(40, 1)).measure == math.ldexp(1.0, -40)
    with pytest.raises(LevelOverflowError):
        dyadic_interval(DyadicIndex(41, 1))


def test_dyadic_index_validation():
    with pytest.raises(ValueError):
        DyadicIndex(2, 5)
    with pytest.raises(ValueError):
        DyadicIndex(2, 0)
    with pytest.raises(ValueError):
        DyadicIndex(-1, 1)


def test_dyadic_measure_exact_everywhere():
    rng = random.Random(11)
    for n in range(41):
        for k in {1, 1 << n, rng.randint(1, 1 << n)}:
            assert dyadic_interval(DyadicIndex(n, k)).measure == math.ldexp(1.0, -n)


def test_interval_range_checked():
    """Intervals lie in [0, 1] with lo <= hi; the enclosure kernels rely on
    this and check no cell index."""
    for lo, hi in ((-1 / 16, 0.5), (0.5, 1 + 1 / 16), (0.6, 0.4), (math.nan, 0.5)):
        with pytest.raises(ValueError):
            Interval(lo, hi)
    with pytest.raises(ValueError):
        IntervalSet.from_pairs([(-0.1, 0.2)])


def test_measure_examples():
    s = IntervalSet.of(Interval(0.25, 0.375), Interval(0.5, 0.625))
    assert s.measure == 0.25
    assert IntervalSet().measure == 0.0
    assert IntervalSet.of(Interval(0.0, 1.0)).measure == 1.0


def test_intersect_example():
    a = IntervalSet.of(Interval(0.25, 0.375), Interval(0.5, 0.625))
    b = IntervalSet.of(Interval(0.3, 0.6))
    got = a.intersect(b)
    assert got == IntervalSet.of(Interval(0.3, 0.375), Interval(0.5, 0.6))
    assert abs(got.measure - 0.175) < 1e-15


def test_intersect_trivial_cases():
    a = IntervalSet.of(Interval(0.1, 0.2), Interval(0.7, 0.9))
    assert a.intersect(IntervalSet()).is_empty()
    assert a.intersect(IntervalSet.of(Interval(0.0, 1.0))) == a


def test_canonicalization_merges_and_sorts():
    s = IntervalSet.of(Interval(0.5, 0.6), Interval(0.1, 0.3), Interval(0.3, 0.5))
    assert s == IntervalSet.of(Interval(0.1, 0.6))
    assert len(s) == 1
    # degenerate parts vanish
    assert IntervalSet.of(Interval(0.4, 0.4)).is_empty()


def test_difference_and_subset():
    a = IntervalSet.of(Interval(0.0, 0.5))
    b = IntervalSet.of(Interval(0.125, 0.375))
    d = a.difference(b)
    assert d == IntervalSet.of(Interval(0.0, 0.125), Interval(0.375, 0.5))
    assert b.is_subset_of(a)
    assert not a.is_subset_of(b)
    assert a.difference(a).is_empty()


def test_serialization_round_trip():
    s = IntervalSet.of(Interval(0.25, 0.375), Interval(0.5, 0.625))
    assert s.to_pairs() == [[0.25, 0.375], [0.5, 0.625]]
    assert IntervalSet.from_pairs(s.to_pairs()) == s


def _oracle_inner(lo: float, hi: float) -> DyadicIndex:
    """Exhaustive enumeration oracle: first (m, k) in lexicographic order
    whose cell fits, using exact rational endpoints."""
    flo, fhi = Fraction(lo), Fraction(hi)
    for m in range(0, 14):
        den = 1 << m
        for k in range(1, den + 1):
            if Fraction(k - 1, den) >= flo and Fraction(k, den) <= fhi:
                return DyadicIndex(m, k)
    raise AssertionError("oracle scan exhausted")


def test_find_inner_examples():
    assert find_inner_dyadic(Interval(0.3, 0.8)) == DyadicIndex(2, 3)
    assert find_inner_dyadic(Interval(0.0, 1.0)) == DyadicIndex(0, 1)
    got = find_inner_dyadic(Interval(0.1, 0.15))
    assert got == _oracle_inner(0.1, 0.15)
    assert got == DyadicIndex(6, 8)
    assert dyadic_interval(got) == Interval(0.109375, 0.125)


def test_find_inner_degenerate():
    with pytest.raises(DegenerateIntervalError):
        find_inner_dyadic(Interval(0.5, 0.5))


def test_find_inner_matches_exhaustive_oracle():
    rng = random.Random(20260810)
    for _ in range(300):
        lo = rng.random()
        hi = lo + (1.0 - lo) * max(rng.random(), 2**-9)
        if hi - lo < 2**-9 or hi > 1.0:
            continue
        got = find_inner_dyadic(Interval(lo, hi))
        want = _oracle_inner(lo, hi)
        assert got == want, (lo, hi)


def test_find_inner_containment_and_factor_four():
    rng = random.Random(4)
    for _ in range(5000):
        a, b = rng.random(), rng.random()
        lo, hi = min(a, b), max(a, b)
        if hi - lo <= 2**-40:
            continue
        iv = Interval(lo, hi)
        d = find_inner_dyadic(iv)
        cell = Interval(math.ldexp(d.index - 1, -d.level), math.ldexp(d.index, -d.level))
        assert cell.lo >= iv.lo and cell.hi <= iv.hi
        assert 4.0 * cell.measure >= iv.measure


_interval_sets = st.lists(
    st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1)).map(
        lambda ab: Interval(min(ab), max(ab))
    ),
    max_size=5,
).map(IntervalSet)


@settings(max_examples=200, deadline=None)
@given(_interval_sets, _interval_sets, _interval_sets)
def test_intersect_algebra(a, b, c):
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(a) == a
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a.intersect(b).measure <= min(a.measure, b.measure) + 1e-12


@settings(max_examples=200, deadline=None)
@given(_interval_sets, _interval_sets)
def test_measure_additive_on_disjoint_split(a, b):
    inter = a.intersect(b)
    only_a = a.difference(b)
    # a splits into (a minus b) and (a meet b), disjoint by construction.
    assert only_a.intersect(inter).measure <= 1e-15
    assert abs(only_a.measure + inter.measure - a.measure) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(_interval_sets, _interval_sets)
def test_union_measure_inclusion_exclusion(a, b):
    u = IntervalSet(a.parts + b.parts)
    i = a.intersect(b)
    assert abs(u.measure + i.measure - (a.measure + b.measure)) <= 1e-12
