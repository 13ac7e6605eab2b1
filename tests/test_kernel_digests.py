"""Kernel digests: the enclosure and continuous kernels keep their exact bits.

A fixed seeded corpus of interval sets runs through ``pettis_integral``
(lower, upper and tail) and ``truncated_integral`` at the
same truncation level, with everything read from it: ``coefficient`` at the
end cells of every part, their neighbours, random cells and the indices 0
and 2^n + 1 just outside a level; ``apply``; ``to_block_vector`` in item
order, or the materialization guard it hits; and ``bochner_level_masses``.
Every float is hashed by ``float.hex``, so a one-ulp change anywhere in the
kernel changes a digest.  The golden report
digests pin whole reports; these pin the kernel APIs beneath them.

The corpus covers greedy-gap, stratified and explicit families at several
depths, each at p = 2, 3 and infinity, with one- to six-part sets whose
endpoints are dyadic (often on slice ends), clustered inside one deep cell
(several parts share an end cell) or uniform, the ``SHARED_END_CELLS``
sets, and random truncation levels.

The ``continuous`` corpus runs five continuous models (the depth-9
reference model and four others with other gauges, slopes, constants and
depths 8 to 20) through ``check_pair`` (lhs, rhs, holds),
``separation_lower_bound``, ``eval_f`` (coordinates in sorted order, then
the tail) and ``eval_fn`` at a random level, which is sometimes outside
the model.  Pairs are uniform, dyadic, pinned at 0.0 or at the float just
below 1.0, or inside one cell or two adjacent cells of a random level, plus
fixed error cases; an error is hashed by its class name.

The ``carriers`` corpus runs the same families and interval sets through
the carrier geometry itself: ``verify_disjointness`` (verdict, mode and
violations, plus one corrupted explicit family), ``pattern`` and
``carrier_measure`` at every level, ``carrier`` at one random cell of every
level, then per set, at a random level, ``overlap`` with each part at its
end cells and their neighbours, ``share`` at those cells and the indices
0 and 2^n + 1, ``locate`` at part ends and a random point, and
``scalar_integral`` of a random functional.  Fixed error cases cover the
index errors of every accessor, ``locate`` outside [0, 1) and the
materialization guard.

The ``one-part`` corpus runs one-part intervals only, where each level
has at most two end cells and at most one run of whole cells, through
``pettis_integral`` on every family above at p = 2, 3 and infinity (the
greedy-gap depth-24 model at p = 2 is the reference lower-bound model):
dyadic cells, uniform intervals, intervals with both ends on slice ends,
and intervals from 0 or to 1.  Per interval it hashes lower, upper and
tail, then the ``truncated_integral`` ``coefficient`` at the two end
cells of every realized level.  It holds enough intervals that
a one-ulp change in a single level's norm term reaches some lower or upper
bound.
"""

import hashlib
import math
import random

import pytest

from pettis_forge import (
    CarrierFamily,
    Functional,
    IntervalSet,
    SequenceRule,
    allocate_carriers,
    build_continuous_model,
    build_model,
    check_pair,
    eval_f,
    eval_fn,
    scalar_integral,
    separation_lower_bound,
    verify_disjointness,
)
from pettis_forge.errors import MaterializationLimitError, PettisForgeError
from pettis_forge.intervals import Interval
from pettis_forge.pettis import bochner_level_masses, pettis_integral, truncated_integral
from pettis_forge.psi import PsiSpec

SPEC34 = PsiSpec("power", exponent=0.75)

#: Sets whose parts share the deepest-level carrier of one cell (see
#: ``tests/test_pettis.py``), so that coordinate sums several parts' ratios.
SHARED_END_CELLS = (
    IntervalSet.from_pairs([(0.25, 0.2985), (0.299, 0.8)]),
    IntervalSet.from_pairs([(0.25, 0.2981), (0.2984, 0.2988), (0.2992, 0.8)]),
    IntervalSet.from_pairs([(0.25, 0.2972), (0.2973, 0.8)]),
    IntervalSet.from_pairs([(0.25, 0.2972), (0.29725, 0.29728), (0.29732, 0.8)]),
)

#: A small guard, so that both the materialized vector and the guard's
#: refusal are pinned.
MAX_COORDS = 600

# kind -> (family, depth) pairs; explicit families are copies of built-ins.
FAMILIES = {
    "greedy-gap": (("greedy-gap", 8), ("greedy-gap", 12), ("greedy-gap", 16), ("greedy-gap", 24)),
    "stratified": (("stratified", 6), ("stratified", 8), ("stratified", 12)),
    "explicit": (("stratified", 6), ("greedy-gap", 8)),
}

#: (gauge, K, rule slope a, depth) per continuous model; the first is the
#: reference model of the continuous campaign.
CONTINUOUS_MODELS = (
    (PsiSpec("power", exponent=0.25), 1.0, 4.0, 9),
    (PsiSpec("power", exponent=0.5), 1.0, 4.0, 12),
    (PsiSpec("sqrt-log", epsilon=0.5), 2.0, 3.0, 14),
    (PsiSpec("power", exponent=0.75), 1.5, 5.0, 8),
    (PsiSpec("sqrt-loglog", epsilon=0.5), 1.0, 1.0, 20),
)

#: The largest float below 1.0, the last point of [0, 1).
LAST = math.nextafter(1.0, 0.0)

# kind -> SHA-256 of the corpus.  Running this file prints the current
# digests; a change here changes kernel bits and belongs in CHANGES.md.
DIGESTS = {
    "greedy-gap": "34897de78f633a2a805a396eb3db92eeceb72ed2f4219f1f87c847cf986d0c90",
    "stratified": "9804509642e46604b75e52bc4b6779422eb9329aec6a73fb888fdc1449019d36",
    "explicit": "d268cd35609a870e60472fe75ff6d0d9207b4495b9598439d6272660531d2da5",
    "continuous": "18a7a80b1721b1447e669adcfa1a5001881f1ddb3cc3d98b77a22beea146898e",
    "carriers": "1d6a21f1e550b3fb59bf0f988fbf0762c36fd490062d34e062adc3afc36fd73f",
    "one-part": "f353b347b0165c5a5e5b6d8d8688c3fe90901eccb255314ea8fa5ab19d359192",
}


def _endpoint(rng, style, depth, center):
    if style == "dyadic":
        level = rng.randint(1, depth + 3)
        return math.ldexp(rng.randint(0, 1 << level), -level)
    if style == "clustered":
        return min(1.0, max(0.0, center + rng.uniform(-1.0, 1.0) * math.ldexp(1.0, -depth - 2)))
    return rng.random()


def _corpus(rng, depth):
    sets = list(SHARED_END_CELLS)
    for style in ("dyadic", "clustered", "uniform"):
        for _ in range(20):
            center = rng.random()
            pts = sorted(_endpoint(rng, style, depth, center) for _ in range(2 * rng.randint(1, 6)))
            sets.append(IntervalSet.from_pairs(zip(pts[::2], pts[1::2])))
    return sets


def _cells(rng, n, E):
    ks = {0, 1, (1 << n), (1 << n) + 1}
    for part in E.parts:
        for k in (math.floor(math.ldexp(part.lo, n)) + 1, math.ceil(math.ldexp(part.hi, n))):
            ks.update((k - 1, k, k + 1))
    ks.update(rng.randint(1, 1 << n) for _ in range(3))
    return sorted(ks)


def _enclosure_lines(rng, model, E):
    depth = model.depth
    first = model.table.rule.term(model.table.certificate.n0)
    N = rng.choice([None, rng.randint(first, depth)])
    enc = pettis_integral(model, E, truncate_at=N)
    yield f"{enc.N} {enc.lower.hex()} {enc.upper.hex()} {enc.tail.hex()}"
    trunc = truncated_integral(model, E, truncate_at=N)
    for n in model.table.levels:
        yield " ".join(f"{k}:{trunc.coefficient(n, k).hex()}" for k in _cells(rng, n, E))
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        n = rng.randint(1, depth)
        coeffs[(n, rng.randint(1, 1 << n))] = rng.uniform(-1.0, 1.0)
    for part in E.parts[:2]:
        n = rng.randint(1, depth)
        coeffs[(n, min(1 << n, math.floor(math.ldexp(part.lo, n)) + 1))] = 0.5
    yield trunc.apply(Functional(model.layout, coeffs)).hex()
    try:
        items = trunc.to_block_vector(max_coords=MAX_COORDS).coeffs.items()
        yield " ".join(f"{n},{k}:{v.hex()}" for (n, k), v in items)
    except MaterializationLimitError:
        yield "guard"
    if N is None:
        masses = bochner_level_masses(model, E)
        yield " ".join(f"{n}:{v.hex()}" for n, v in masses.items())


def _family(kind, scheme, depth):
    family = allocate_carriers(depth, scheme)
    if kind == "explicit":
        family = CarrierFamily.from_sets(depth, {nk: family.carrier(*nk) for nk in family.cells()})
    return family


def _pettis_lines(kind):
    for scheme, depth in FAMILIES[kind]:
        family = _family(kind, scheme, depth)
        for p in (2.0, 3.0, math.inf):
            rng = random.Random(f"{kind}-{scheme}-{depth}-{p}")
            model = build_model(family, SPEC34, p=p, depth=depth)
            for E in _corpus(rng, depth):
                yield from _enclosure_lines(rng, model, E)


def _one_part(rng, family, style):
    depth = family.depth
    if style == "dyadic":
        m = rng.randint(0, depth + 3)
        k = rng.randint(1, 1 << m)
        return math.ldexp(k - 1, -m), math.ldexp(k, -m)
    if style == "slice-ends":
        ends = []
        for _ in range(2):
            n = rng.randint(1, depth)
            part = rng.choice(family.carrier(n, rng.randint(1, 1 << n)).parts)
            ends.append(rng.choice((part.lo, part.hi)))
        return min(ends), max(ends)
    if style == "from-zero":
        return 0.0, rng.choice((1.0, rng.random()))
    if style == "to-one":
        return rng.random(), 1.0
    return tuple(sorted((rng.random(), rng.random())))


#: (style, count) of the one-part intervals drawn per model.
ONE_PART_STYLES = (("dyadic", 40), ("uniform", 120), ("slice-ends", 80), ("from-zero", 10), ("to-one", 10))


def _one_part_lines():
    for kind in ("greedy-gap", "stratified", "explicit"):
        for scheme, depth in FAMILIES[kind]:
            family = _family(kind, scheme, depth)
            for p in (2.0, 3.0, math.inf):
                rng = random.Random(f"one-part-{kind}-{scheme}-{depth}-{p}")
                model = build_model(family, SPEC34, p=p, depth=depth)
                first = model.table.rule.term(model.table.certificate.n0)
                for style, count in ONE_PART_STYLES:
                    for _ in range(count):
                        lo, hi = _one_part(rng, family, style)
                        if hi <= lo:
                            continue
                        N = rng.choice([None, None, rng.randint(first, depth)])
                        enc = pettis_integral(model, Interval(lo, hi), truncate_at=N)
                        yield (f"{lo.hex()} {hi.hex()} {enc.N} {enc.lower.hex()} "
                               f"{enc.upper.hex()} {enc.tail.hex()}")
                        trunc = truncated_integral(model, Interval(lo, hi), truncate_at=N)
                        yield " ".join(
                            f"{trunc.coefficient(n, k).hex()}"
                            for n in model.table.levels
                            for k in (math.floor(math.ldexp(lo, n)) + 1, math.ceil(math.ldexp(hi, n)))
                        )


def _pairs(rng, model):
    floor = model.separation_floor()
    deepest = model.rule.term(model.depth)
    yield from (
        (0.3, 0.3),  # not distinct
        (0.2, 0.2 + floor / 2),  # too close
        (1.0, 1.0 - floor / 2),  # too close, and outside [0, 1)
        (0.5, 1.0),  # bracketable, but outside [0, 1)
        (1.0, 0.5),
        (-0.25, 0.5),
        (math.nan, 0.5),
        (0.0, LAST),
        (LAST, 0.0),
    )
    for _ in range(40):
        yield rng.random(), rng.random()
        yield 0.0, rng.random()
        yield LAST, rng.random()
    for _ in range(60):
        s, t = (rng.randint(1, deepest + 2) for _ in range(2))
        yield math.ldexp(rng.randrange(1 << s), -s), math.ldexp(rng.randrange(1 << t), -t)
    for _ in range(60):
        # one cell or two adjacent cells of a random level's partition
        p = model.rule.term(rng.randint(2, model.depth))
        k = rng.randrange(1 << p)
        for j in (-1, 0, 1):
            yield math.ldexp(k + rng.random(), -p), math.ldexp(k + j + rng.random(), -p)


def _outcome(render, fn, *args):
    """``render(fn(*args))``, or the class name of the error it raised."""
    try:
        return render(fn(*args))
    except (PettisForgeError, ValueError) as exc:
        return type(exc).__name__


def _coords(v):
    return " ".join(f"{n},{k}:{x.hex()}" for (n, k), x in sorted(v.coeffs.items()))


def _continuous_lines():
    for spec, K, a, depth in CONTINUOUS_MODELS:
        rng = random.Random(f"continuous-{spec.family}-{K}-{a}-{depth}")
        model = build_continuous_model(spec, K=K, rule=SequenceRule("affine", a=a), depth=depth)
        for s, t in _pairs(rng, model):
            yield _outcome(lambda pc: f"{pc.lhs.hex()} {pc.rhs.hex()} {pc.holds}", check_pair, model, s, t)
            yield _outcome(float.hex, separation_lower_bound, model, s, t)
            for omega in (s, t):
                yield _outcome(lambda ft: f"{_coords(ft[0])} {ft[1].hex()}", eval_f, model, omega)
                yield _outcome(_coords, eval_fn, model, rng.randint(1, depth + 1), omega)


def _pairs_hex(s):
    return " ".join(f"{lo.hex()},{hi.hex()}" for lo, hi in s.to_pairs())


def _carrier_lines():
    for kind in ("greedy-gap", "stratified", "explicit"):
        for scheme, depth in FAMILIES[kind]:
            family = _family(kind, scheme, depth)
            rng = random.Random(f"carriers-{kind}-{scheme}-{depth}")
            yield from _carrier_family_lines(rng, family)
    # a corrupted explicit family: A(1, 1) also covers A(2, 1)
    family = _family("explicit", "stratified", 6)
    sets = dict(family.sets)
    sets[(1, 1)] = IntervalSet(sets[(1, 1)].parts + sets[(2, 1)].parts)
    report = verify_disjointness(CarrierFamily.from_sets(6, sets))
    yield f"{report.passed} {report.mode} {report.violations}"
    yield _outcome(_pairs_hex, allocate_carriers(26, "stratified").carrier, 1, 1)


def _carrier_family_lines(rng, family):
    depth = family.depth
    report = verify_disjointness(family)
    yield f"{report.passed} {report.mode} {report.violations}"
    for n in range(1, depth + 1):
        pattern = family.pattern(n)
        yield "None" if pattern is None else " ".join([str(pattern[0])] + [x.hex() for x in pattern[1:]])
        yield family.carrier_measure(n, 1).hex()
        yield _pairs_hex(family.carrier(n, rng.randint(1, 1 << n)))
    for n, k in ((0, 1), (depth + 1, 1), (1, 0), (1, 3)):
        yield _outcome(float.hex, family.overlap, n, k, 0.0, 1.0)
        yield _outcome(float.hex, family.share, n, k, IntervalSet.from_pairs([(0.0, 1.0)]))
        yield _outcome(float.hex, family.carrier_measure, n, k)
        yield _outcome(_pairs_hex, family.carrier, n, k)
    yield _outcome(str, family.pattern, 0)
    yield _outcome(str, family.pattern, depth + 1)
    for omega in (1.0, -0.25, math.nan):
        yield _outcome(str, family.locate, omega)
    model = build_model(family, SPEC34, depth=depth)
    for E in _corpus(rng, depth):
        n = rng.randint(1, depth)
        ks = _cells(rng, n, E)
        yield " ".join(_outcome(float.hex, family.share, n, k, E) for k in ks)
        for part in E.parts:
            k = math.floor(math.ldexp(part.lo, n)) + 1
            for j in sorted({k - 1, k, k + 1, math.ceil(math.ldexp(part.hi, n))}):
                yield _outcome(float.hex, family.overlap, n, j, part.lo, part.hi)
        points = [p.lo for p in E.parts[:2]] + [E.parts[-1].hi, rng.random()]
        yield " ".join(str(family.locate(w)) for w in points if w < 1.0)
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            m = rng.randint(1, depth)
            coeffs[(m, rng.randint(1, 1 << m))] = rng.uniform(-1.0, 1.0)
        for k in ks[1:-1]:
            coeffs[(n, k)] = rng.uniform(-1.0, 1.0)
        yield scalar_integral(model, Functional(model.layout, coeffs), E).hex()


def kernel_digest(kind):
    if kind == "continuous":
        lines = _continuous_lines()
    elif kind == "carriers":
        lines = _carrier_lines()
    elif kind == "one-part":
        lines = _one_part_lines()
    else:
        lines = _pettis_lines(kind)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("ascii") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_kernel_digest(kind):
    assert kernel_digest(kind) == DIGESTS[kind]


if __name__ == "__main__":
    for kind in sorted(DIGESTS):
        print(kind, kernel_digest(kind))
