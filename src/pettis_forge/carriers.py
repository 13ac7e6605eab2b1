"""Disjoint positive-measure carrier families inside the dyadic cells.

A family of depth N assigns to every cell I(n, k) = [(k-1)/2^n, k/2^n),
1 <= n <= N, 1 <= k <= 2^n, a carrier subset A(n, k) of positive measure such
that all carriers are pairwise disjoint across the entire family.  Every
point of [0, 1) therefore lies in at most one carrier.

Both deterministic built-in schemes are slice patterns: level n is given by
``(a, rl, rh)`` with n <= a <= N, a nondecreasing in n, and A(n, k) is the
relative slice [rl, rh) of every level-a cell inside I(n, k).  Carriers,
measures, overlaps, point location and verification are written once on
top of that pattern.

``greedy-gap`` (default), a = n
    Cells are processed from the deepest level upward; each carrier takes
    the middle half of the largest free gap of its cell (leftmost gap on
    ties).  Processing deepest-first keeps every cell's free region
    nonempty; processing shallow-first would not (a level-1 carrier of
    length 1/4 swallows level-3 cells whole).  The resulting family is
    self-similar across cells of one level: each carrier is the single
    slice [1/2 - 2^-(N-n+3), 1/2 + 2^-(N-n+3)) of its cell, [1/4, 3/4) at
    n = N.  All endpoints are dyadic of level at most N + 3, hence
    float-exact for every supported depth.

``stratified``, a = N
    Every carrier spreads into the finest-level subcells of its cell: level
    n claims the relative slice [2^-n, 2^-(n-1)) of each level-N subcell
    below it.  Slices of different levels are disjoint inside every finest
    cell, no carrier contains a complete dyadic cell of level <= N
    (Cantor-like porosity), and the leftover relative slice [0, 2^-N)
    keeps every cell's free region positive.  Endpoints are dyadic of level
    N + n, so this scheme is capped at depth 26 to stay float-exact.

Built-in families are verified at every depth in integer arithmetic on the
floats' exact dyadic values: a structural check of every level pair on the
family's own pattern floats, plus a check that every endpoint ``carrier()``
realizes is the dyadic value that check reasons about.  Explicit families
(deserialized or hand-built) store their sets verbatim and get a full
endpoint sweep.

Serialized, a built-in family is its generator ``{depth, scheme}`` at every
depth; only an explicit family writes its sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .errors import CarrierIndexError, ConfigError, MaterializationLimitError
from .intervals import Interval, IntervalSet

GREEDY_GAP = "greedy-gap"
STRATIFIED = "stratified"
EXPLICIT = "explicit"

_SCHEMES = (GREEDY_GAP, STRATIFIED, EXPLICIT)

MAX_DEPTH = 40
MAX_STRATIFIED_DEPTH = 26

#: Materialization guard for carrier().
PART_LIMIT = 1 << 21


@dataclass(frozen=True)
class CarrierFamily:
    """Immutable family of disjoint carriers, one per dyadic cell.

    Built-in schemes never store their sets; carriers are produced on demand
    from each level's slice pattern, measures/overlaps are computed in O(1)
    per cell, and shares of an interval set in O(parts of the set).
    """

    depth: int
    scheme: str
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

    def _pattern(self, n: int) -> tuple[int, float, float]:
        """(a, rl, rh): level n takes the relative slice [rl, rh) of every level-a cell."""
        if self.scheme == STRATIFIED:
            return self.depth, math.ldexp(1.0, -n), math.ldexp(1.0, 1 - n)
        t = self.depth - n
        if t == 0:
            return n, 0.25, 0.75
        half = math.ldexp(1.0, -(t + 3))
        return n, 0.5 - half, 0.5 + half

    @cached_property
    def _slices(self) -> tuple[tuple[int, float, float, float, float], ...]:
        """Per level n, at index n - 1: (a, rl, rh, ldexp(rl, -a), ldexp(rh, -a)).

        The last two are the slice's offsets inside its level-a cell.  Built
        on first use rather than in ``allocate_carriers``, so building a
        model does not pay for it.
        """
        out = []
        for n in range(1, self.depth + 1):
            a, rl, rh = self._pattern(n)
            out.append((a, rl, rh, math.ldexp(rl, -a), math.ldexp(rh, -a)))
        return tuple(out)

    # -- carrier access -------------------------------------------------

    def carrier(self, n: int, k: int) -> IntervalSet:
        """Explicit interval set of A(n, k); may be large for ``stratified``."""
        self._check_index(n, k)
        if self.sets is not None:
            return self.sets[(n, k)]
        a, _, _, s_lo, s_hi = self._slices[n - 1]
        count = 1 << (a - n)
        if count > PART_LIMIT:
            raise MaterializationLimitError(
                f"carrier({n}, {k}) has {count} parts; use overlap()/measure instead"
            )
        base = math.ldexp(k - 1, -n)
        w = math.ldexp(1.0, -a)
        parts = []
        for j in range(count):
            sub = base + j * w
            parts.append(Interval(sub + s_lo, sub + s_hi))
        return IntervalSet(parts)

    def carrier_measure(self, n: int, k: int) -> float:
        self._check_index(n, k)
        if self.sets is not None:
            return self.sets[(n, k)].measure
        _, rl, rh = self._pattern(n)
        return math.ldexp(rh - rl, -n)

    def overlap(self, n: int, k: int, lo: float, hi: float) -> float:
        """Measure of A(n, k) intersected with [lo, hi); O(1) for built-ins."""
        self._check_index(n, k)
        if hi <= lo:
            return 0.0
        if self.sets is not None:
            return self.sets[(n, k)].clip(lo, hi).measure
        if hi <= math.ldexp(k - 1, -n) or lo >= math.ldexp(k, -n):
            return 0.0
        a, _, _, s_lo, s_hi = self._slices[n - 1]
        return slice_overlap(a - n, math.ldexp(1.0, -a), s_lo, s_hi, k, lo, hi)

    def share(self, n: int, k: int, E: IntervalSet) -> float:
        """mu(E n A(n, k)) / mu(A(n, k)), bit for bit what set intersection gives.

        Explicit families intersect their stored set with E.  Built-ins count
        per part of E: the level-a slices strictly between the first and last
        level-a cell the part meets lie wholly inside it, so they add one
        term, count * s_len, and only the two end slices need the
        intersection's own float operations.  ``_endpoint_check`` makes every
        slice endpoint and length an exact dyadic float, so count * s_len and
        the carrier measure 2^(a-n) * s_len are exact, and ``fsum`` rounds
        the same exact sum as the measure of the materialized intersection.
        Cost is O(parts of E) instead of O(2^(a-n)).  Nothing here reads
        ``overlap``, ``pattern`` or ``slice_overlap``, so the pairing oracle
        stays independent of the enclosure kernel.
        """
        self._check_index(n, k)
        if self.sets is not None:
            carrier = self.sets[(n, k)]
            return carrier.intersect(E).measure / carrier.measure
        a, _, _, s_lo, s_hi = self._slices[n - 1]
        s_len = s_hi - s_lo
        base, end = math.ldexp(k - 1, -n), math.ldexp(k, -n)
        first = (k - 1) << (a - n)  # level-a cells first..last make up I(n, k)
        last = first + (1 << (a - n)) - 1
        terms = []
        for part in E.parts:
            lo, hi = part.lo, part.hi
            if hi <= base:
                continue
            if lo >= end:  # parts are sorted, so no later part meets the cell
                break
            i = max(math.floor(math.ldexp(lo, a)), first)
            j = min(math.ceil(math.ldexp(hi, a)) - 1, last)
            if j - i > 1:
                terms.append((j - i - 1) * s_len)
            for c in (i,) if i == j else (i, j):
                sub = math.ldexp(c, -a)
                piece = min(hi, sub + s_hi) - max(lo, sub + s_lo)
                if piece > 0.0:
                    terms.append(piece)
        return math.fsum(terms) / math.ldexp(s_len, a - n)

    def pattern(self, n: int) -> tuple[int, float, float, float] | None:
        """(a, s_lo, s_hi, measure) of built-in level n, None for explicit families.

        A(n, k) is the slice [s_lo, s_hi) of each of the 2^(a-n) level-a cells
        inside I(n, k), offsets absolute within a level-a cell, and measure is
        ``carrier_measure(n, k)`` for every k: the arguments, with d = a - n
        and w = 2^-a, that ``slice_overlap`` clips against.
        """
        self._check_index(n, 1)
        if self.sets is not None:
            return None
        a, _, _, s_lo, s_hi = self._slices[n - 1]
        return a, s_lo, s_hi, self.carrier_measure(n, 1)

    def locate(self, omega: float) -> tuple[int, int] | None:
        """(level, index) of the unique carrier containing omega, if any."""
        if not (0.0 <= omega < 1.0):
            raise ValueError(f"point {omega} outside [0, 1)")
        if self.sets is not None:
            for (n, k), s in self.sets.items():
                if s.contains(omega):
                    return n, k
            return None
        for n, (a, rl, rh, _, _) in enumerate(self._slices, 1):
            scaled = math.ldexp(omega, a)
            if rl <= scaled - math.floor(scaled) < rh:
                return n, math.floor(math.ldexp(omega, n)) + 1
        return None

    # -- aggregates -------------------------------------------------------

    def cells(self) -> Iterator[tuple[int, int]]:
        for n in range(1, self.depth + 1):
            for k in range(1, (1 << n) + 1):
                yield n, k

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """A built-in family is its generator {depth, scheme}, which rebuilds
        it bit for bit; an explicit family adds its sets as
        {"n,k": [[lo, hi], ...]}."""
        out: dict = {"depth": self.depth, "scheme": self.scheme}
        if self.sets is not None:
            out["sets"] = {f"{n},{k}": self.carrier(n, k).to_pairs() for n, k in self.cells()}
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "CarrierFamily":
        try:
            depth = obj["depth"]
            scheme = str(obj["scheme"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed carrier archive: {exc}") from exc
        if type(depth) is not int:
            raise ConfigError(f"carrier archive depth must be an integer, got {depth!r}")
        if scheme not in _SCHEMES:
            raise ConfigError(f"unknown carrier scheme {scheme!r} in archive")
        if scheme == EXPLICIT or "sets" in obj:
            # Sets, also next to a built-in scheme tag as in old or
            # hand-edited archives, are untrusted input: they make an
            # explicit family, which gets the full sweep, so tampering
            # surfaces as a disjointness failure rather than silent reuse.
            return cls.from_sets(depth, _parse_sets(obj.get("sets")))
        return allocate_carriers(depth, scheme)

    @classmethod
    def from_sets(cls, depth: int, sets: Mapping[tuple[int, int], IntervalSet]) -> "CarrierFamily":
        if depth < 1:
            raise ConfigError(f"carrier depth must be >= 1, got {depth}")
        for n, k in sets:
            if not (1 <= n <= depth and 1 <= k <= 1 << n):
                raise ConfigError(f"carrier set key {(n, k)} names no cell of a depth-{depth} family")
        # Count the cells present and scan lazily for the first missing one:
        # listing every missing cell of a deep, sparse archive never ends.
        missing = (1 << (depth + 1)) - 2 - len(sets)
        if missing:
            cells = ((n, k) for n in range(1, depth + 1) for k in range(1, (1 << n) + 1))
            first = next(cell for cell in cells if cell not in sets)
            raise ConfigError(f"carrier sets missing {missing} cells, e.g. {first}")
        return cls(depth=depth, scheme=EXPLICIT, sets=dict(sets))


def slice_overlap(d: int, w: float, s_lo: float, s_hi: float, k: int, lo: float, hi: float) -> float:
    """Measure of A(n, k) n [lo, hi) on a built-in level, for a part that meets I(n, k).

    ``d = a - n``, ``w = 2^-a`` and the slice offsets [s_lo, s_hi) inside a
    level-a cell are ``pattern(n)``'s; I(n, k) is level-a cells first..last,
    first = (k - 1) * 2^d.  The part meets cells i = max(first, floor(lo/w))
    through j = min(last, ceil(hi/w) - 1), a single cell when i == j (always
    when d = 0, the single-slice clip).  Every term is a float the
    materialized clip also forms:
    - slice ends c*w + s_lo and c*w + s_hi are exact (``_endpoint_check``);
    - the j - i - 1 slices strictly between lie wholly inside the part and
      add (j - i - 1) * s_len, exact since s_len is a power of two in
      both built-in schemes;
    - each end slice, clipped to [lo, hi), adds one float difference of its
      clipped ends when positive, the length of that materialized part.
    The terms are added whole slices first, then the lo end, then the hi
    end, so the result never depends on hashing.  When d = 0 or k >= 2
    every partial sum is exact, so the result is the materialized clip's
    ``fsum``.  At k = 1 a lo far below the cell width can carry bits the
    sum cannot hold, and the result may then differ from it by an ulp.
    """
    i = j = first = (k - 1) << d
    if d:
        last = first + (1 << d) - 1
        i = first if lo < (first + 1) * w else math.floor(lo / w)
        j = last if hi > last * w else math.ceil(hi / w) - 1
    total = (j - i - 1) * (s_hi - s_lo) if j > i else 0.0
    for c in (i,) if i == j else (i, j):
        sub = c * w
        x, y = sub + s_lo, sub + s_hi
        piece = (hi if hi < y else y) - (lo if lo > x else x)
        if piece > 0.0:
            total += piece
    return total


def _parse_sets(raw: object) -> dict[tuple[int, int], IntervalSet]:
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


def allocate_carriers(depth: int, scheme: str = GREEDY_GAP) -> CarrierFamily:
    """Deterministic family for the requested depth and scheme.

    Both built-in schemes allocate in closed form, so nothing is computed
    here.  Their smallest carrier measures, 2^-(depth+2) for greedy-gap and
    2^-2n at level n for stratified, are exact floats at every supported
    depth, and ``verify_disjointness`` proves 0 < rl < rh at every level
    in exact arithmetic.
    """
    if not isinstance(depth, int) or depth < 1:
        raise ConfigError(f"carrier depth must be a positive integer, got {depth!r}")
    if scheme not in (GREEDY_GAP, STRATIFIED):
        raise ConfigError(f"unknown carrier scheme {scheme!r}; expected one of {_SCHEMES[:2]}")
    cap = MAX_STRATIFIED_DEPTH if scheme == STRATIFIED else MAX_DEPTH
    if depth > cap:
        raise ConfigError(f"scheme {scheme!r} supports depth <= {cap}, got {depth}")
    return CarrierFamily(depth=depth, scheme=scheme)


# ---------------------------------------------------------------------------
# Disjointness verification
# ---------------------------------------------------------------------------


#: ``DisjointnessReport.mode`` of an explicit and of a built-in family.
FULL_SWEEP = "full-sweep"
STRUCTURAL = "structural"


@dataclass(frozen=True)
class DisjointnessReport:
    passed: bool
    violations: tuple[tuple, ...]
    mode: str
    pairs_checked: int
    cells_checked: int


def verify_disjointness(family: CarrierFamily) -> DisjointnessReport:
    """Check pairwise disjointness, containment and positivity of a family.

    Explicit families get a complete endpoint sweep over every carrier part.
    Built-in families are checked at every depth on their slice pattern, in
    integer arithmetic on the floats' exact dyadic values: endpoint
    exactness, then every pair of levels at every relative cell position.
    That covers all 2^(N+1) - 2 cells.
    """
    violations: list[tuple] = []
    if family.sets is not None:
        pairs, cells = _sweep_all(family, violations)
        mode = FULL_SWEEP
    else:
        _endpoint_check(family, violations)
        # the structural check relies on the level conditions (a nondecreasing)
        pairs = 0 if violations else _structural_check(family, violations)
        cells = (1 << (family.depth + 1)) - 2
        mode = STRUCTURAL
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
    # sorted by lo, a part that starts inside another carrier's part overlaps it;
    # a carrier pair is reported once, however many of its parts overlap
    events.sort()
    prev_hi = -1.0
    prev_owner: tuple[int, int] | None = None
    reported: set[frozenset] = set()
    for lo, hi, n, k in events:
        if prev_owner is not None and lo < prev_hi and (n, k) != prev_owner:
            pair = frozenset((prev_owner, (n, k)))
            if pair not in reported:
                reported.add(pair)
                violations.append(("overlap", prev_owner, (n, k)))
        if hi > prev_hi:
            prev_hi, prev_owner = hi, (n, k)
    return len(events), cells


def _endpoint_check(family: CarrierFamily, violations: list[tuple]) -> None:
    """Exact check that every endpoint ``carrier()`` realizes is the pattern's dyadic value.

    ``carrier(n, k)`` builds its parts as [sub + s_lo, sub + s_hi) with
    sub = base + j*w, base = (k-1)/2^n, w = 2^-a and 0 <= j < 2^(a-n).  If
    n <= a, sub = i/2^a for the integer i = (k-1)*2^(a-n) + j < 2^a, the left
    end of a level-a cell inside I(n, k); if also 2^a <= 2^53, the product
    j*w and the sum giving sub are exact.  If s_lo == rl/2^a exactly, the true
    endpoint (i + rl)/2^a is dyadic with denominator at most
    max(2^a, den(s_lo)) <= 2^53, and it lies in [0, 1] when 0 < rl < rh <= 1
    (which the structural check asserts), so its numerator is at most 2^53:
    it is a float, and the rounded addition returns it.  The same holds for
    s_hi.  Every realized carrier is then exactly the slice [rl, rh) of each
    level-a cell inside I(n, k), the geometry the structural check reasons
    about; a nondecreasing in n is what lets that check place each deeper
    level's level-a cell inside one cell of a shallower level's, and a <= N
    keeps the pattern inside the family.  Both conditions are decided in
    integer arithmetic on the floats' exact dyadic values:
    ``as_integer_ratio`` gives each float as num/den with den a power of
    two, and s == r/2^a is decided by cross-multiplication.
    """
    limit = 1 << 53
    prev = 0
    for n, (a, rl, rh, s_lo, s_hi) in enumerate(family._slices, 1):
        if not max(n, prev) <= a <= family.depth:
            violations.append(("level", n, a))
            continue
        prev = a
        for r, s in ((rl, s_lo), (rh, s_hi)):
            num, den = s.as_integer_ratio()
            r_num, r_den = r.as_integer_ratio()
            # s == r / 2^a, cross-multiplied
            if num * r_den << a != r_num * den or max(den, 1 << a) > limit:
                violations.append(("endpoint", n, s))


def _structural_check(family: CarrierFamily, violations: list[tuple]) -> int:
    """Exact pairwise check of the slice pattern in integer arithmetic.

    The pattern is read from the family's own floats, so the check sees the
    geometry the family actually produces.  A level-a_m cell sits at
    relative offset j/S inside its level-a_n ancestor, S = 2^(a_m - a_n)
    (n < m); the level-n and level-m carriers overlap positively iff an
    integer 0 <= j < S exists with (j + cl_m) / S < cu_n and
    (j + cu_m) / S > cl_n, where (cl, cu) are the relative slice bounds.
    Checking every level pair covers every carrier pair of the family:
    carriers in non-nested cells cannot meet.  Each level must also satisfy
    0 < cl < cu <= 1; cu <= 1 is exact containment for a half-open slice.
    Every bound is taken in integer arithmetic on the floats' exact dyadic
    values, scaled to one common denominator 2^B, so the floors and
    ceilings are shifts by B.
    """
    exact = [(a, rl.as_integer_ratio(), rh.as_integer_ratio()) for a, rl, rh, _, _ in family._slices]
    # every denominator is a power of two, so the largest, D = 2^B, is a common one
    D = max((den for _, *bounds in exact for _, den in bounds), default=1)
    B = D.bit_length() - 1
    levels = [(a, lo * (D // lo_den), hi * (D // hi_den)) for a, (lo, lo_den), (hi, hi_den) in exact]
    pairs = 0
    for n, (a_n, cl_n, cu_n) in enumerate(levels, 1):
        if not (0 < cl_n < cu_n <= D):
            violations.append(("containment", n, 1))
        for m in range(n + 1, family.depth + 1):
            pairs += 1
            a_m, cl_m, cu_m = levels[m - 1]
            d = a_m - a_n
            # x >> B is floor(x / 2^B), and -(-x >> B) its ceiling
            j_min = max(((cl_n << d) - cu_m >> B) + 1, 0)
            j_max = min(-(cl_m - (cu_n << d) >> B) - 1, (1 << d) - 1)
            if j_min <= j_max:
                violations.append(("overlap", (n, "*"), (m, f"offset {j_min}")))
    return pairs
