"""Kernel digests: the enclosure kernel's floats keep their exact bits.

A fixed seeded corpus of interval sets runs through ``pettis_integral`` and
everything read from its enclosure: lower, upper, tail and clamp anomalies;
``coefficient`` at the end cells of every part, their neighbours, random
cells and the indices 0 and 2^n + 1 just outside a level; ``apply``;
``to_block_vector`` in item order, or the materialization guard it hits;
and ``bochner_level_masses``.  Every float is hashed by ``float.hex``, so a
one-ulp change anywhere in the kernel changes a digest.  The golden report
digests pin whole reports; these pin the kernel APIs beneath them.

The corpus covers greedy-gap, stratified and explicit families at several
depths, each at p = 2, 3 and infinity, with one- to six-part sets whose
endpoints are dyadic (often on slice ends), clustered inside one deep cell
(several parts share an end cell) or uniform, the ``SHARED_END_CELLS``
sets, and random truncation levels.
"""

import hashlib
import math
import random

import pytest

from pettis_forge import CarrierFamily, Functional, IntervalSet, allocate_carriers, build_model
from pettis_forge.errors import MaterializationLimitError
from pettis_forge.pettis import bochner_level_masses, pettis_integral
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

# kind -> SHA-256 of the corpus.  Running this file prints the current
# digests; a change here changes kernel bits and belongs in CHANGES.md.
DIGESTS = {
    "greedy-gap": "54368eca5dcf8dc712f28bb536f2ee5560dc261250d98e30a4e85a1d39c0139e",
    "stratified": "d791143c82a489da42b28fe12bf0acedacd976561cef56897fb425d46de901ef",
    "explicit": "353160d42988f7bbde15fdbd8bedd4e95d695a2868e82bfbfd883e2418dc50e7",
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
    first = model.table.rule.term(model.table.n0)
    N = rng.choice([None, rng.randint(first, depth)])
    enc = pettis_integral(model, E, truncate_at=N)
    yield f"{enc.N} {enc.lower.hex()} {enc.upper.hex()} {enc.tail.hex()} {enc.clamp_anomalies}"
    for n in model.levels():
        yield " ".join(f"{k}:{enc.coefficient(n, k).hex()}" for k in _cells(rng, n, E))
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        n = rng.randint(1, depth)
        coeffs[(n, rng.randint(1, 1 << n))] = rng.uniform(-1.0, 1.0)
    for part in E.parts[:2]:
        n = rng.randint(1, depth)
        coeffs[(n, min(1 << n, math.floor(math.ldexp(part.lo, n)) + 1))] = 0.5
    yield enc.apply(Functional(model.layout, coeffs)).hex()
    try:
        items = enc.to_block_vector(max_coords=MAX_COORDS).coeffs.items()
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


def kernel_digest(kind):
    digest = hashlib.sha256()
    for scheme, depth in FAMILIES[kind]:
        family = _family(kind, scheme, depth)
        for p in (2.0, 3.0, math.inf):
            rng = random.Random(f"{kind}-{scheme}-{depth}-{p}")
            model = build_model(family, SPEC34, p=p, depth=depth)
            for E in _corpus(rng, depth):
                for line in _enclosure_lines(rng, model, E):
                    digest.update(line.encode("ascii") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_kernel_digest(kind):
    assert kernel_digest(kind) == DIGESTS[kind]


if __name__ == "__main__":
    for kind in sorted(FAMILIES):
        print(kind, kernel_digest(kind))
