"""Carrier families: closed forms vs a literal simulation, disjointness, schemes."""

import math
import random
from fractions import Fraction

import pytest

from pettis_forge import (
    CarrierFamily,
    IntervalSet,
    allocate_carriers,
    verify_disjointness,
)
from pettis_forge.carriers import (
    GREEDY_GAP,
    MAX_DEPTH,
    MAX_STRATIFIED_DEPTH,
    STRATIFIED,
    _endpoint_check,
    _structural_check,
    slice_overlap,
)
from pettis_forge.errors import CarrierIndexError, ConfigError, MaterializationLimitError
from pettis_forge.intervals import Interval


def simulate_greedy(depth: int) -> dict:
    """Independent oracle: literal middle-half-of-largest-gap allocation,
    deepest level first, cells left to right, real interval arithmetic."""
    occupied = IntervalSet()
    sets = {}
    for n in range(depth, 0, -1):
        for k in range(1, (1 << n) + 1):
            cell = IntervalSet.of(Interval(math.ldexp(k - 1, -n), math.ldexp(k, -n)))
            free = cell.difference(occupied)
            assert not free.is_empty(), f"free region vanished at {(n, k)}"
            best = max(free.parts, key=lambda p: (p.measure, -p.lo))
            length = best.measure
            chunk = IntervalSet.of(Interval(best.lo + length / 4, best.lo + 3 * length / 4))
            sets[(n, k)] = chunk
            occupied = IntervalSet(occupied.parts + chunk.parts)
    return sets


@pytest.mark.parametrize("depth", range(1, 9))
def test_greedy_closed_form_matches_simulation(depth):
    oracle = simulate_greedy(depth)
    fam = allocate_carriers(depth)
    for (n, k), want in oracle.items():
        assert fam.carrier(n, k) == want, (depth, n, k)
        assert fam.carrier_measure(n, k) == want.measure


def test_depth_one_worked_values():
    fam = allocate_carriers(1)
    assert fam.carrier(1, 1) == IntervalSet.of(Interval(0.125, 0.375))
    assert fam.carrier(1, 2) == IntervalSet.of(Interval(0.625, 0.875))


def test_carrier_index_errors():
    fam = allocate_carriers(1)
    assert fam.carrier(1, 1).measure > 0
    with pytest.raises(CarrierIndexError):
        fam.carrier(1, 3)
    with pytest.raises(CarrierIndexError):
        fam.carrier(2, 1)
    for scheme in (GREEDY_GAP, STRATIFIED):
        fam = allocate_carriers(3, scheme)
        for n in (0, 4):
            with pytest.raises(CarrierIndexError):
                fam.pattern(n)


def test_zero_depth_rejected():
    with pytest.raises(ConfigError):
        allocate_carriers(0)
    with pytest.raises(ConfigError):
        allocate_carriers(3, "no-such-scheme")


def _swept(family):
    """Verdict of the full endpoint sweep, the oracle for the structural path."""
    from pettis_forge.carriers import _sweep_all

    violations = []
    _sweep_all(family, violations)
    return not violations


@pytest.mark.parametrize(
    "scheme,depth",
    [(GREEDY_GAP, 10), (STRATIFIED, 10), (GREEDY_GAP, 1), (STRATIFIED, 1)],
)
def test_disjointness_full_sweep(scheme, depth):
    # the sweep oracle and the structural path both pass every built-in
    fam = allocate_carriers(depth, scheme)
    assert _swept(fam)
    report = verify_disjointness(fam)
    assert report.passed and not report.violations
    assert report.mode == "structural"
    assert report.cells_checked == sum(1 for _ in fam.cells())


def test_disjointness_catches_corruption():
    fam = allocate_carriers(2)
    sets = {cell: fam.carrier(*cell) for cell in fam.cells()}
    sets[(1, 1)] = IntervalSet(sets[(1, 1)].parts + sets[(2, 1)].parts)
    bad = CarrierFamily.from_sets(2, sets)
    report = verify_disjointness(bad)
    assert not report.passed and report.mode == "full-sweep"
    overlap = next(v for v in report.violations if v[0] == "overlap")
    assert {overlap[1], overlap[2]} == {(1, 1), (2, 1)}


def test_disjointness_reports_each_overlapping_pair_once():
    # A(2, 1) has 16 parts at depth 6, and every one of them overlaps A(1, 1)
    fam = allocate_carriers(6, STRATIFIED)
    sets = {cell: fam.carrier(*cell) for cell in fam.cells()}
    assert len(sets[(2, 1)].parts) == 16
    sets[(1, 1)] = IntervalSet(sets[(1, 1)].parts + sets[(2, 1)].parts)
    report = verify_disjointness(CarrierFamily.from_sets(6, sets))
    assert report.violations == (("overlap", (2, 1), (1, 1)),)


def test_structural_mode_at_depth_24():
    report = verify_disjointness(allocate_carriers(24))
    assert report.passed and not report.violations
    assert report.mode == "structural"


@pytest.mark.parametrize("scheme,depth", [(GREEDY_GAP, 19), (GREEDY_GAP, 40), (STRATIFIED, 26)])
def test_structural_mode_counts(scheme, depth):
    report = verify_disjointness(allocate_carriers(depth, scheme))
    assert report.mode == "structural" and report.passed
    assert report.pairs_checked == depth * (depth - 1) // 2
    assert report.cells_checked == 2 ** (depth + 1) - 2


def test_structural_check_agrees_with_full_sweep():
    # both verification paths reach the same verdict on mid-size families
    for scheme in (GREEDY_GAP, STRATIFIED):
        fam = allocate_carriers(12, scheme)
        assert _swept(fam)
        report = verify_disjointness(fam)
        assert report.passed and report.pairs_checked == 12 * 11 // 2


@pytest.mark.parametrize("scheme", [GREEDY_GAP, STRATIFIED])
def test_structural_check_catches_moved_pattern(scheme):
    # level 1 takes level 2's slice pattern, so the two levels overlap
    class Moved(CarrierFamily):
        def _pattern(self, n):
            return super()._pattern(2 if n == 1 else n)

    depth = 5
    violations = []
    assert _structural_check(allocate_carriers(depth, scheme), violations) == 10
    assert not violations
    moved = Moved(depth=depth, scheme=scheme)
    assert _structural_check(moved, violations) == 10
    assert ("overlap", (1, "*"), (2, "offset 0")) in violations
    assert not verify_disjointness(moved).passed
    assert not _swept(moved)  # the full sweep agrees


def _edited_slices(level, edit):
    """A built-in family class whose ``_slices`` entry for ``level`` is edited."""

    class Edited(CarrierFamily):
        @property
        def _slices(self):
            out = list(CarrierFamily._slices.func(self))
            out[level - 1] = edit(*out[level - 1])
            return tuple(out)

    return Edited


@pytest.mark.parametrize("scheme", [GREEDY_GAP, STRATIFIED])
def test_endpoint_check_catches_perturbed_slices(scheme):
    depth = 6
    # s_lo one ulp off the pattern's rl / 2^a: harmless to the sweep, but the
    # realized endpoints are no longer the rationals the structural check saw
    nudged = _edited_slices(
        3, lambda a, rl, rh, s_lo, s_hi: (a, rl, rh, math.nextafter(s_lo, 0.0), s_hi)
    )(depth=depth, scheme=scheme)
    report = verify_disjointness(nudged)
    assert not report.passed
    assert report.violations[0][:2] == ("endpoint", 3)
    # a level whose slices live below the family's finest level
    too_deep = _edited_slices(
        depth,
        lambda a, rl, rh, s_lo, s_hi: (
            depth + 1, rl, rh, math.ldexp(rl, -depth - 1), math.ldexp(rh, -depth - 1)
        ),
    )(depth=depth, scheme=scheme)
    report = verify_disjointness(too_deep)
    assert not report.passed
    assert report.violations == (("level", depth, depth + 1),)


def test_containment_needs_each_slice_inside_its_cell():
    depth = 6
    # stratified level 1 is [1/2, 1) of every level-6 cell; reaching past 1
    # leaves the cell, with both endpoints still the pattern's exact values
    past_one = _edited_slices(
        1, lambda a, rl, rh, s_lo, s_hi: (a, rl, 1.25, s_lo, math.ldexp(1.25, -a))
    )(depth=depth, scheme=STRATIFIED)
    report = verify_disjointness(past_one)
    assert report.violations == (("containment", 1, 1),)
    assert report.pairs_checked == 15
    # the deepest level [2^-6, 2^-5) grown down into the free slice [0, 2^-6)
    from_zero = _edited_slices(
        depth, lambda a, rl, rh, s_lo, s_hi: (a, 0.0, rh, 0.0, s_hi)
    )(depth=depth, scheme=STRATIFIED)
    assert verify_disjointness(from_zero).violations == (("containment", depth, 1),)


def test_endpoint_check_enforces_the_denominator_limit():
    # greedy-gap level 4 (a = 4) with rl = 15/32 + 2^-50: s_lo = rl / 2^4 is
    # its exact value, but a denominator of 2^54 is past what the float sum
    # in carrier() can hold, so only the 2^53 limit refuses it
    n = 4
    nudged = _edited_slices(
        n,
        lambda a, rl, rh, s_lo, s_hi: (
            a, rl + 2**-50, rh, math.ldexp(rl + 2**-50, -a), s_hi
        ),
    )(depth=6, scheme=GREEDY_GAP)
    a, rl, _, s_lo, _ = nudged._slices[n - 1]
    assert a == 4 and rl.as_integer_ratio()[1] == 2**50 and s_lo * 16 == rl
    assert verify_disjointness(nudged).violations == (("endpoint", n, s_lo),)


# ``_endpoint_check`` and ``_structural_check`` in rational arithmetic: an
# independent oracle for their integer arithmetic.


def _fraction_endpoint_check(family, violations):
    limit = 1 << 53
    prev = 0
    for n, (a, rl, rh, s_lo, s_hi) in enumerate(family._slices, 1):
        if not max(n, prev) <= a <= family.depth:
            violations.append(("level", n, a))
            continue
        prev = a
        scale = 1 << a
        for r, s in ((rl, s_lo), (rh, s_hi)):
            exact = Fraction(s)
            if exact != Fraction(r) / scale or max(exact.denominator, scale) > limit:
                violations.append(("endpoint", n, s))


def _fraction_structural_check(family, violations):
    levels = [(a, Fraction(rl), Fraction(rh)) for a, rl, rh, _, _ in family._slices]
    pairs = 0
    for n, (a_n, cl_n, cu_n) in enumerate(levels, 1):
        if not (0 < cl_n < cu_n <= 1):
            violations.append(("containment", n, 1))
        for m in range(n + 1, family.depth + 1):
            pairs += 1
            a_m, cl_m, cu_m = levels[m - 1]
            S = 1 << (a_m - a_n)
            j_min = max(math.floor(cl_n * S - cu_m) + 1, 0)
            j_max = min(math.ceil(cu_n * S - cl_m) - 1, S - 1)
            if j_min <= j_max:
                violations.append(("overlap", (n, "*"), (m, f"offset {j_min}")))
    return pairs


def _oracle_verdict(family):
    """(violations, pairs_checked) of a built-in family, in rational arithmetic."""
    violations = []
    _fraction_endpoint_check(family, violations)
    pairs = 0 if violations else _fraction_structural_check(family, violations)
    return tuple(violations), pairs


@pytest.mark.parametrize("scheme,cap", [(GREEDY_GAP, MAX_DEPTH), (STRATIFIED, MAX_STRATIFIED_DEPTH)])
def test_integer_checks_match_the_fraction_oracle_on_builtins(scheme, cap):
    for depth in range(1, cap + 1):
        fam = allocate_carriers(depth, scheme)
        report = verify_disjointness(fam)
        got = report.violations, report.pairs_checked
        assert got == _oracle_verdict(fam) == ((), depth * (depth - 1) // 2), depth


def _perturbed_family(rng):
    """A built-in family whose ``_slices`` carry up to three seeded edits:
    a one-ulp nudge, a zeroed or a doubled bound (rl, rh, s_lo or s_hi, or a
    pattern bound together with its offset), or one level's pattern copied
    onto another."""
    scheme = rng.choice((GREEDY_GAP, STRATIFIED))
    depth = rng.randint(1, MAX_DEPTH if scheme == GREEDY_GAP else MAX_STRATIFIED_DEPTH)
    slices = [list(row) for row in CarrierFamily._slices.func(CarrierFamily(depth, scheme))]
    for _ in range(rng.randint(0, 3)):
        row = rng.choice(slices)
        edit = rng.choice(("down", "up", "zero", "double", "copy"))
        if edit == "copy":
            row[:] = rng.choice(slices)
            continue
        op = {
            "down": lambda x: math.nextafter(x, -math.inf),
            "up": lambda x: math.nextafter(x, math.inf),
            "zero": lambda x: 0.0,
            "double": lambda x: 2.0 * x,
        }[edit]
        side = rng.choice((1, 2))  # (rl, s_lo) or (rh, s_hi)
        for i in rng.choice(((side,), (side + 2,), (side, side + 2))):
            row[i] = op(row[i])

    class Perturbed(CarrierFamily):
        _slices = tuple(map(tuple, slices))

    return Perturbed(depth=depth, scheme=scheme)


def test_integer_checks_match_the_fraction_oracle_on_perturbed_slices():
    rng = random.Random(1997)
    trials = 600
    failed = structural_runs = structural_failed = 0
    for _ in range(trials):
        fam = _perturbed_family(rng)
        report = verify_disjointness(fam)
        want = _oracle_verdict(fam)
        assert (report.violations, report.pairs_checked) == want, fam._slices
        failed += bool(want[0])
        # the structural check on its own, wherever the levels let it run
        # (a decreasing a has no ancestor cell to place a level in)
        endpoint = []
        _fraction_endpoint_check(fam, endpoint)
        if any(v[0] == "level" for v in endpoint):
            continue
        new, old = [], []
        assert _structural_check(fam, new) == _fraction_structural_check(fam, old)
        assert new == old, fam._slices
        structural_runs += 1
        structural_failed += bool(old)
    # the edits reach clean families, refused families and structural failures
    assert 0 < failed < trials
    assert 0 < structural_failed < structural_runs


def test_archive_depth_must_be_integer():
    # 3.9, true and "3" used to load as depth 3, 1 and 3
    assert CarrierFamily.from_json({"depth": 3, "scheme": GREEDY_GAP}).depth == 3
    for depth in (3.9, True, "3", 3.0):
        with pytest.raises(ConfigError, match="depth must be an integer"):
            CarrierFamily.from_json({"depth": depth, "scheme": GREEDY_GAP})


@pytest.mark.parametrize("scheme", [GREEDY_GAP, STRATIFIED])
def test_occupied_measure_below_one(scheme):
    for depth in (1, 3, 6):
        fam = allocate_carriers(depth, scheme)
        carriers = [fam.carrier(n, k) for n, k in fam.cells()]
        occ = IntervalSet([part for c in carriers for part in c.parts])
        assert occ.measure < 1.0
        total = math.fsum(
            fam.carrier_measure(n, k) for n, k in fam.cells()
        )
        assert abs(total - occ.measure) < 1e-12  # disjointness makes these equal
        # one part per level-a cell: 2^a parts at every level
        assert sum(len(c) for c in carriers) == sum(1 << a for a, *_ in fam._slices)
        for n, k in fam.cells():
            assert fam.carrier_measure(n, k) == fam.carrier(n, k).measure


def test_level_mass_stays_below_one_per_prefix():
    fam = allocate_carriers(12)
    acc = 0.0
    for n in range(1, 13):
        acc += math.fsum(fam.carrier_measure(n, k) for k in range(1, (1 << n) + 1))
        assert acc < 1.0


def test_determinism_bit_identical():
    a = allocate_carriers(7)
    b = allocate_carriers(7)
    for cell in a.cells():
        assert a.carrier(*cell) == b.carrier(*cell)


@pytest.mark.parametrize("scheme", [GREEDY_GAP, STRATIFIED])
def test_locate_agrees_with_explicit_membership(scheme):
    fam = allocate_carriers(6, scheme)
    explicit = {cell: fam.carrier(*cell) for cell in fam.cells()}
    rng = random.Random(99)
    points = [rng.random() for _ in range(2000)]
    points += [0.0, 0.5, 0.2, 0.125, 0.375 - 2**-50]
    for omega in points:
        hits = [cell for cell, s in explicit.items() if s.contains(omega)]
        assert len(hits) <= 1  # global disjointness, point form
        got = fam.locate(omega)
        assert got == (hits[0] if hits else None), omega


@pytest.mark.parametrize("scheme", [GREEDY_GAP, STRATIFIED])
def test_overlap_agrees_with_explicit_clip(scheme):
    fam = allocate_carriers(6, scheme)
    rng = random.Random(5)
    for _ in range(500):
        a, b = rng.random(), rng.random()
        lo, hi = min(a, b), max(a, b)
        n = rng.randint(1, 6)
        k = rng.randint(1, 1 << n)
        want = fam.carrier(n, k).clip(lo, hi).measure
        got = fam.overlap(n, k, lo, hi)
        assert abs(got - want) < 1e-15, (scheme, n, k, lo, hi)


@pytest.mark.parametrize("scheme", [GREEDY_GAP, STRATIFIED])
def test_pattern_describes_the_carriers(scheme):
    """Every built-in level is the slice [s_lo, s_hi) of each level-a cell
    inside its cell: a = n on greedy-gap, a = depth on stratified.
    Explicit copies report None."""
    fam = allocate_carriers(6, scheme)
    explicit = CarrierFamily.from_sets(6, {cell: fam.carrier(*cell) for cell in fam.cells()})
    for n in range(1, 7):
        assert explicit.pattern(n) is None
        a, s_lo, s_hi, measure = fam.pattern(n)
        assert a == (n if scheme == GREEDY_GAP else 6)
        w = math.ldexp(1.0, -a)
        for k in range(1, (1 << n) + 1):
            subs = [math.ldexp(k - 1, -n) + j * w for j in range(1 << (a - n))]
            assert fam.carrier(n, k) == IntervalSet([Interval(c + s_lo, c + s_hi) for c in subs])
            assert fam.carrier_measure(n, k) == measure


def _slice_overlap_cases(rng, fam, n, k):
    """Parts meeting I(n, k): inside one cell across at least two slices with
    both ends unaligned, lo inside the cell's first level-a cell, both ends
    on slice ends, and parts reaching past the cell on either side."""
    a, s_lo, s_hi, _ = fam.pattern(n)
    w, count = math.ldexp(1.0, -a), 1 << (a - n)
    base, end = math.ldexp(k - 1, -n), math.ldexp(k, -n)

    def inside(c):  # a point strictly inside slice c of the cell
        return base + c * w + s_lo + rng.uniform(0.01, 0.99) * (s_hi - s_lo)

    def slice_end(c):
        return base + c * w + rng.choice((s_lo, s_hi))

    i = rng.randrange(count - 1)
    j = rng.randrange(i + 1, count)
    yield inside(i), inside(j)
    yield base + rng.random() * w, inside(rng.randrange(count))
    yield base + rng.random() * w, end
    yield sorted((slice_end(rng.randrange(count)), slice_end(rng.randrange(count))))
    yield base - rng.random() * (end - base), inside(j)
    yield inside(i), end + rng.random() * (end - base)


@pytest.mark.parametrize("depth", [12, 16])
def test_slice_overlap_is_the_materialized_clip(depth):
    """Bit for bit the measure of the materialized carrier clipped to [lo, hi),
    on levels of up to 2^10 slices per carrier and cells k >= 2 (at k = 1 a
    lo far below the cell width can round the sum, as ``slice_overlap``
    documents)."""
    fam = allocate_carriers(depth, STRATIFIED)
    rng = random.Random(depth)
    checked = 0
    for n in range(depth - 10, depth):
        for k in rng.sample(range(2, (1 << n) + 1), 3):
            carrier = fam.carrier(n, k)
            a, s_lo, s_hi, _ = fam.pattern(n)
            for lo, hi in _slice_overlap_cases(rng, fam, n, k):
                lo, hi = max(lo, 0.0), min(hi, 1.0)
                want = carrier.clip(lo, hi).measure
                got = slice_overlap(a - n, math.ldexp(1.0, -a), s_lo, s_hi, k, lo, hi)
                assert got == want, (n, k, lo.hex(), hi.hex())
                assert fam.overlap(n, k, lo, hi) == want
                checked += 1
    assert checked == 10 * 3 * 6


def test_explicit_archive_with_a_large_depth_fails_fast():
    """A deep explicit archive that lacks sets is refused from a count of
    the cells present, without listing the 2^41 - 2 missing ones."""
    with pytest.raises(ConfigError) as info:
        CarrierFamily.from_json({"depth": 40, "scheme": "explicit", "sets": {}})
    assert str(info.value) == "carrier sets missing 2199023255550 cells, e.g. (1, 1)"
    fam = allocate_carriers(3)
    sets = {cell: fam.carrier(*cell) for cell in fam.cells() if cell != (3, 5)}
    with pytest.raises(ConfigError, match=r"^carrier sets missing 1 cells, e.g. \(3, 5\)$"):
        CarrierFamily.from_sets(3, sets)


@pytest.mark.parametrize("key", [(4, 1), (0, 1), (-1, 1), (2, 0), (2, 5), (3, -1)])
def test_from_sets_rejects_keys_outside_the_family(key):
    """A key with n outside 1..depth or k outside 1..2^n names no cell.  It
    is refused even when every cell is present and the extra set is disjoint
    from them all, where it would otherwise pass the sweep and win ``locate``."""
    fam = allocate_carriers(3)
    sets = {cell: fam.carrier(*cell) for cell in fam.cells()}
    sets[key] = IntervalSet.from_pairs([(0.0, 0.01)])
    with pytest.raises(ConfigError, match=rf"^carrier set key \({key[0]}, {key[1]}\) names no cell"):
        CarrierFamily.from_sets(3, sets)


def test_stratified_measures_and_porosity():
    depth = 8
    fam = allocate_carriers(depth, STRATIFIED)
    for n in (1, 3, 8):
        assert fam.carrier_measure(n, 1) == math.ldexp(1.0, -2 * n)
    # no carrier contains a complete dyadic cell of any level <= depth
    for n in (1, 2, 3):
        s = fam.carrier(n, 1)
        for m in range(n, depth + 1):
            w = math.ldexp(1.0, -m)
            for j in range(1 << (m - n)):
                inside = s.clip(j * w, (j + 1) * w).measure
                assert inside < w  # strictly porous
    # every finest cell keeps free room: its relative slice [0, 2^-depth)
    # is never taken, i.e. absolute points below 2^-2*depth are free
    assert fam.locate(0.0) is None
    assert fam.locate(math.ldexp(0.5, -2 * depth)) is None


def test_stratified_depth_cap():
    with pytest.raises(ConfigError):
        allocate_carriers(27, STRATIFIED)


def test_materialization_guards():
    strat = allocate_carriers(26, STRATIFIED)
    with pytest.raises(MaterializationLimitError):
        strat.carrier(1, 1)


def test_serialization_round_trip_small():
    fam = allocate_carriers(4)
    blob = fam.to_json()
    assert blob == {"depth": 4, "scheme": GREEDY_GAP}
    back = CarrierFamily.from_json(blob)
    assert back == fam
    for cell in fam.cells():
        assert back.carrier(*cell) == fam.carrier(*cell)
    assert verify_disjointness(back).mode == "structural"
    # an explicit family ships its sets, and they come back verbatim
    explicit = CarrierFamily.from_sets(4, {cell: fam.carrier(*cell) for cell in fam.cells()})
    blob = explicit.to_json()
    assert blob["scheme"] == "explicit" and len(blob["sets"]) == 2**5 - 2
    back = CarrierFamily.from_json(blob)
    assert back == explicit
    assert verify_disjointness(back).mode == "full-sweep"
    # sets next to a built-in scheme tag (old archives) load as explicit
    back = CarrierFamily.from_json({**blob, "scheme": GREEDY_GAP})
    assert back == explicit


def test_serialization_elides_large_sets():
    fam = allocate_carriers(24)
    blob = fam.to_json()
    assert "sets" not in blob and "sets_elided" not in blob
    back = CarrierFamily.from_json(blob)
    assert back == fam
    assert back.carrier(5, 17) == fam.carrier(5, 17)
