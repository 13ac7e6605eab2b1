"""Gauge functions, growth certificates, and coefficient schedules.

A gauge is a nondecreasing function psi: [0, inf) -> [0, inf).  A gauge
belongs to the admissible class for exponent p when, for some strictly
increasing integer sequence {p_n} with p_0 = 0, the series

    sum_n  psi(4 * 2^-p_(n-1)) * (2^p_n)^(1/p)

converges (exponent 1/inf reads as 0, so the factor is 1 for p = inf).
Validation here is a certified eventual-ratio test rather than symbolic
convergence: a PASS pins an index n0 and a ratio r < 1 with
term_(n+1) <= r * term_n for all n >= n0.  Each certificate is a decision
(``_certify``) on the list term_1..term_n_max that one pass evaluates: n0 is
one past the last ratio above RATIO_CAP, and the list passes iff
n0 <= n_max // 2.  The same pass gives a model its coefficients, so each
gauge value is evaluated once.  That ``GrowthReport`` is the one certificate
record of both model kinds, and ``GrowthReport.tail`` their one tail bound.

Logarithmic families are defined by their formulas only below a threshold
(1/e, resp. e^-e); above it the formulas stop being monotone.  Because the
forced p_0 = 0 makes every coefficient schedule start at psi(4), the
package also provides a total monotone extension that continues each log
family as a multiple of sqrt(s) above its threshold (continuously), and the
validators and schedules evaluate through that extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, GrowthConditionError, PsiDomainError

POWER = "power"
SQRT_LOG = "sqrt-log"
SQRT_LOGLOG = "sqrt-loglog"
CUSTOM_TABLE = "custom-table"

_FAMILIES = (POWER, SQRT_LOG, SQRT_LOGLOG, CUSTOM_TABLE)

#: Formula domain thresholds for the logarithmic families.
SQRT_LOG_THRESHOLD = 1.0 / math.e
SQRT_LOGLOG_THRESHOLD = math.exp(-math.e)

#: The growth certificate's ratio cap and the most terms it checks.
RATIO_CAP = 0.95
MAX_TERM_COUNT = 64


@dataclass(frozen=True)
class PsiSpec:
    """A gauge family with its parameters."""

    family: str
    exponent: float | None = None  # power family: psi(s) = s^exponent
    epsilon: float | None = None  # log families: the 1 + epsilon power
    knots: tuple[tuple[float, float], ...] = ()  # custom-table

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown gauge family {self.family!r}")
        if self.family == POWER:
            if not _is_number(self.exponent) or not 0 < self.exponent < math.inf:
                raise ConfigError(
                    f"power family needs a finite exponent > 0, got {self.exponent!r}"
                )
        elif self.family in (SQRT_LOG, SQRT_LOGLOG):
            if not _is_number(self.epsilon) or not 0 < self.epsilon < math.inf:
                raise ConfigError(
                    f"{self.family} family needs a finite epsilon > 0, got {self.epsilon!r}"
                )
        else:
            k = self.knots
            if len(k) < 2 or k[0][0] != 0.0 or k[0][1] != 0.0:
                raise ConfigError("custom-table needs knots starting at (0, 0)")
            for (s0, v0), (s1, v1) in zip(k, k[1:]):
                if s1 <= s0 or v1 < v0:
                    raise ConfigError("custom-table knots must increase in s and not decrease in value")

    def threshold(self) -> float | None:
        if self.family == SQRT_LOG:
            return SQRT_LOG_THRESHOLD
        if self.family == SQRT_LOGLOG:
            return SQRT_LOGLOG_THRESHOLD
        return None

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.exponent is not None:
            out["exponent"] = self.exponent
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.knots:
            out["knots"] = [list(k) for k in self.knots]
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "PsiSpec":
        knots = obj.get("knots", ())
        if not isinstance(knots, (list, tuple)) or not all(
            isinstance(k, (list, tuple)) and len(k) == 2 for k in knots
        ):
            raise ConfigError(f"custom-table knots must be a list of [s, value] pairs, got {knots!r}")
        try:
            return cls(
                family=str(obj["family"]),
                exponent=obj.get("exponent"),
                epsilon=obj.get("epsilon"),
                knots=tuple((parse_number(s, "knot s"), parse_number(v, "knot value")) for s, v in knots),
            )
        except KeyError as exc:
            raise ConfigError(f"gauge spec missing field {exc}") from exc


def _p_json(p: float) -> float | str:
    return "inf" if math.isinf(p) else p


def _is_number(value: object) -> bool:
    # type(...) also turns away bool, which JSON true/false become.
    return type(value) in (int, float)


def parse_number(value: object, name: str) -> float:
    """A finite JSON number as a float; anything else is a ConfigError.

    Python's ``json`` reads ``Infinity`` and ``NaN`` as floats; neither is a
    usable scale, knot or bound, so both are rejected here.
    """
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):  # type: ignore[arg-type]
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)  # type: ignore[arg-type]


def parse_exponent(value: object) -> float:
    """Norm exponent from JSON: a number, or the string 'inf'."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"bad norm exponent {value!r}")
    if not _is_number(value):
        raise ConfigError(f"bad norm exponent {value!r}")
    p = float(value)  # type: ignore[arg-type]
    if not p >= 1.0:  # also NaN
        raise ConfigError(f"norm exponent must be >= 1, got {p}")
    return p


def eval_psi_total(spec: PsiSpec, s: float) -> float:
    """Gauge value at s >= 0 through the total monotone extension: the
    formula below the threshold, a continuous sqrt(s) continuation at and
    above it.  The power and custom-table families are their formula."""
    if s < 0.0:
        raise PsiDomainError(f"gauge argument {s} is negative")
    th = spec.threshold()
    if th is None or s < th:
        return _eval_formula(spec, s)
    if spec.family == SQRT_LOG:
        # At s = 1/e the log factor equals 1, so the continuation is sqrt(s).
        return math.sqrt(s)
    # At s = e^-e the factors equal 1/e and 1.
    return math.sqrt(s) / math.e


def _eval_formula(spec: PsiSpec, s: float) -> float:
    if spec.family == POWER:
        return s ** spec.exponent  # type: ignore[operator]
    if s == 0.0:
        return 0.0
    if spec.family == SQRT_LOG:
        log1 = math.log(1.0 / s)
        return math.sqrt(s) * (1.0 / log1) ** (1.0 + spec.epsilon)  # type: ignore[operator]
    if spec.family == SQRT_LOGLOG:
        log1 = math.log(1.0 / s)
        return (
            math.sqrt(s)
            * (1.0 / log1)
            * (1.0 / math.log(log1)) ** (1.0 + spec.epsilon)  # type: ignore[operator]
        )
    return _interp(spec.knots, s)


def _interp(knots: Sequence[tuple[float, float]], s: float) -> float:
    if s >= knots[-1][0]:
        return knots[-1][1]
    lo, hi = 0, len(knots) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if knots[mid][0] <= s:
            lo = mid
        else:
            hi = mid
    s0, v0 = knots[lo]
    s1, v1 = knots[hi]
    return v0 + (v1 - v0) * (s - s0) / (s1 - s0)


# ---------------------------------------------------------------------------
# Level sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceRule:
    """Strictly increasing integer levels p_n with p_0 = 0 forced.

    ``affine``: p_n = ceil(a * n) + b (a >= 1 keeps it strictly increasing).
    ``list``: explicit values for p_1, p_2, ...
    """

    kind: str
    a: float = 1.0
    b: int = 0
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "affine":
            if self.a < 1.0:
                raise ConfigError(f"affine slope must be >= 1, got {self.a}")
            if not math.isfinite(self.a * (MAX_TERM_COUNT + 1)):
                raise ConfigError(f"affine slope {self.a} puts p_{MAX_TERM_COUNT + 1} past the float range")
            if math.ceil(self.a) + self.b < 1:
                raise ConfigError("affine rule must give p_1 >= 1")
        elif self.kind == "list":
            vs = self.values
            if not vs or vs[0] < 1 or any(y <= x for x, y in zip(vs, vs[1:])):
                raise ConfigError("list rule needs strictly increasing positive integers")
        else:
            raise ConfigError(f"unknown sequence rule kind {self.kind!r}")

    def term(self, n: int) -> int:
        """p_n; raises ConfigError past the end of a list rule."""
        if n < 0:
            raise ConfigError(f"sequence index {n} is negative")
        if n == 0:
            return 0
        if self.kind == "affine":
            return math.ceil(self.a * n) + self.b
        if n > len(self.values):
            raise ConfigError(f"list rule has only {len(self.values)} entries, wanted p_{n}")
        return self.values[n - 1]

    def max_index(self) -> int | None:
        return None if self.kind == "affine" else len(self.values)

    def levels_within(self, depth: int) -> tuple[int, ...]:
        """All p_n with n >= 1 and p_n <= depth."""
        out = []
        n = 1
        while self.max_index() is None or n <= self.max_index():  # type: ignore[operator]
            v = self.term(n)
            if v > depth:
                break
            out.append(v)
            n += 1
        return tuple(out)

    def to_json(self) -> dict:
        if self.kind == "affine":
            return {"kind": "affine", "a": self.a, "b": self.b}
        return {"kind": "list", "list": list(self.values)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "SequenceRule":
        kind = str(obj.get("kind", "affine"))
        if kind == "affine":
            b = obj.get("b", 0)
            if type(b) is not int:
                raise ConfigError(f"affine rule b must be an integer, got {b!r}")
            return cls("affine", a=parse_number(obj.get("a", 1.0), "affine rule a"), b=b)
        if kind != "list":
            raise ConfigError(f"unknown sequence rule kind {kind!r}")
        values = obj.get("list")
        if not isinstance(values, Sequence) or not all(type(v) is int for v in values):
            raise ConfigError(f"list rule needs a 'list' array of integers, got {values!r}")
        return cls("list", values=tuple(values))


# ---------------------------------------------------------------------------
# Growth validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the certified eventual-ratio test.

    When ``passed``, every consecutive term ratio from index n0 on is at
    most ``ratio`` (<= RATIO_CAP < 1); ``tail`` turns that into the tail
    bound of both model kinds.
    """

    passed: bool
    p: float
    n_max: int
    terms: tuple[float, ...]  # term_n for n = 1..n_max
    n0: int | None = None
    ratio: float | None = None

    def tail(self, m: int, term: Callable[[int], float], scale: float, last: int | None) -> float:
        """Bound on scale * (term_m + term_(m+1) + ...), m >= 1: the terms
        before n0 as they are, then term_k / (1 - ratio) at k = max(m, n0).
        Past ``last``, the end of a list rule, the decay goes on from
        term_last.  Terms in the window are the report's own; ``term(n)``
        gives term_n past it."""
        if not self.passed or self.ratio is None or self.n0 is None:
            raise GrowthConditionError("no ratio certificate available")
        r, k = self.ratio, max(m, self.n0)
        head = scale * math.fsum(self.terms[m - 1 : self.n0 - 1])
        at = min(k, last or k)
        first = self.terms[at - 1] if at <= self.n_max else term(at)
        if at < k:
            return head + scale * first * r / (1.0 - r)
        return head + scale * first / (1.0 - r)


def growth_term(spec: PsiSpec, p: float, rule: SequenceRule, n: int) -> float:
    """term_n = psi(4 * 2^-p_(n-1)) * (2^p_n)^(1/p), via the total gauge."""
    return _weighted(_gauge_factor(spec, rule.term(n - 1)), p, rule.term(n))


def _gauge_factor(spec: PsiSpec, level: int) -> float:
    """psi(4 * 2^-level): the gauge factor of term_n and of the coefficient at
    p_n, with level = p_(n-1)."""
    try:
        return eval_psi_total(spec, math.ldexp(4.0, -level))
    except OverflowError:  # past the float range: a non-finite term fails the certificate
        return math.inf


def _weighted(factor: float, p: float, level: int) -> float:
    if math.isinf(p):
        return factor
    try:
        return factor * 2.0 ** (level / p)
    except OverflowError:  # past the float range: a non-finite term fails the certificate
        return math.inf


def validate_growth(
    spec: PsiSpec, p: float = 2.0, rule: SequenceRule | None = None, depth: int = 24
) -> GrowthReport:
    """The growth certificate of a pettis model of this depth, as ``coefficients``
    runs it.  Failure is a value, not an error; a depth that gives no level
    or more than MAX_TERM_COUNT levels is a ``ConfigError`` in both."""
    if rule is None:
        rule = SequenceRule("affine")
    return _growth(spec, p, rule, depth)[0]


def _growth(
    spec: PsiSpec, p: float, rule: SequenceRule, depth: int
) -> tuple[GrowthReport, tuple[int, ...], list[float]]:
    """The growth certificate of a pettis model of this depth, its levels
    p_n <= depth, and the gauge factor psi(4 * 2^-p_(n-1)) of each term_n in
    the window, n = 1..n_max.  One list p_0..p_65 (or to a list rule's end)
    gives both the levels and the window.  No level, or more than
    MAX_TERM_COUNT, the terms one window holds, is a config error."""
    most = MAX_TERM_COUNT + 1
    ladder = [rule.term(n) for n in range(min(most, rule.max_index() or most) + 1)]
    levels = tuple(level for level in ladder[1:] if level <= depth)
    if not levels:
        raise ConfigError(f"no sequence level within depth {depth}")
    if len(levels) > MAX_TERM_COUNT:
        raise ConfigError(f"depth {depth} gives more than MAX_TERM_COUNT = {MAX_TERM_COUNT} levels")
    factors = [_gauge_factor(spec, level) for level in ladder[: _window(len(levels), len(ladder) - 1)]]
    terms = tuple(_weighted(f, p, level) for f, level in zip(factors, ladder[1:]))
    return _certify(terms, p), levels, factors


def _window(levels: int, entries: int) -> int:
    """Terms the certificate of a ``levels``-level model checks:
    min(MAX_TERM_COUNT, max(48, 2 * levels)), and no more than the rule's
    ``entries``.  It holds every level of a model with at most 64 levels."""
    n_max = min(MAX_TERM_COUNT, max(48, 2 * levels), entries)
    if n_max < 2:
        raise ConfigError("list rule too short for a ratio certificate (needs at least 2 entries)")
    return n_max


def _certify(terms: tuple[float, ...], p: float) -> GrowthReport:
    """The decision on the window's terms term_1..term_n_max.  A non-finite
    term fails.  n0 is one past the last ratio term_(n+1)/term_n above
    RATIO_CAP (1 when there is none): the least n0 from which every ratio
    is at most the cap.  PASS iff n0 <= n_max // 2."""
    n_max = len(terms)
    if not all(map(math.isfinite, terms)):
        return GrowthReport(False, p, n_max, terms)
    ratios = [
        (t1 / t0 if t0 > 0.0 else (0.0 if t1 == 0.0 else math.inf))
        for t0, t1 in zip(terms, terms[1:])
    ]
    n0 = 1 + max((n for n, r in enumerate(ratios, start=1) if not r <= RATIO_CAP), default=0)
    if n0 > n_max // 2:
        return GrowthReport(False, p, n_max, terms)
    return GrowthReport(True, p, n_max, terms, n0=n0, ratio=max(ratios[n0 - 1 :]))


def summability_term(spec: PsiSpec, rule: SequenceRule, n: int) -> float:
    """u_n = psi(2^-p_n), the summand of the sup-norm regime series."""
    return eval_psi_total(spec, math.ldexp(1.0, -rule.term(n)))


def validate_summable(
    spec: PsiSpec, rule: SequenceRule | None = None, depth: int = 9
) -> GrowthReport:
    """Ratio certificate for sum of psi(2^-p_n); the p = inf regime.

    The certificate of the continuous separation model of this depth (levels
    2..depth), whose coefficients 2K * u_(n-2) need this sum finite, as
    ``build_continuous_model`` runs it: a depth below 2, past MAX_TERM_COUNT
    levels (the tail starts at u_(depth-1)) or with p_depth >= 1024 (the walk
    scales by 2^p_n, which must be a float) is a ``ConfigError`` in both.
    """
    if rule is None:
        rule = SequenceRule("affine")
    if depth < 2:
        raise ConfigError(f"continuous model needs depth >= 2, got {depth}")
    if depth - 1 > MAX_TERM_COUNT:
        raise ConfigError(f"depth {depth} gives more than MAX_TERM_COUNT = {MAX_TERM_COUNT} levels")
    if rule.term(depth) >= 1024:
        raise ConfigError(f"continuous model needs p_depth < 1024, got {rule.term(depth)}")
    n_max = _window(depth - 1, rule.max_index() or MAX_TERM_COUNT)
    return _certify(tuple(summability_term(spec, rule, n) for n in range(1, n_max + 1)), math.inf)


def _require_in_range(name: str, x: float, p: float) -> None:
    """ConfigError unless x and, at finite p, x**p are finite floats."""
    if not math.isfinite(x):
        raise ConfigError(f"{name} is {x}, past the float range")
    if not math.isinf(p):
        try:
            x**p  # float ** raises OverflowError where its result would be inf
        except OverflowError:
            raise ConfigError(f"{name} is {x}, whose power p = {p} is past the float range") from None


# ---------------------------------------------------------------------------
# Coefficient schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """Sparse coefficient schedule c_m = 2K * psi(4 * 2^-p_(n-1)) at m = p_n.

    Carries the growth certificate it was built on, so that tail bounds stay
    computable past the realized depth.
    """

    spec: PsiSpec
    rule: SequenceRule
    K: float
    p: float
    depth: int
    levels: tuple[int, ...]  # realized p_n <= depth, n = 1..len(levels)
    coeffs: Mapping[int, float] = field(repr=False)  # level -> c
    certificate: GrowthReport = field(repr=False)

    def coefficient(self, m: int) -> float:
        return self.coeffs.get(m, 0.0)

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "p": _p_json(self.p),
            "depth": self.depth,
            "levels": list(self.levels),
            "coeffs": {str(m): c for m, c in sorted(self.coeffs.items())},
            "ratio": self.certificate.ratio,
            "n0": self.certificate.n0,
        }


def coefficients(
    spec: PsiSpec,
    K: float = 1.0,
    p: float = 2.0,
    rule: SequenceRule | None = None,
    depth: int = 24,
) -> CoefficientTable:
    """Coefficient schedule for the given gauge, or GrowthConditionError.

    The growth certificate runs first, as ``validate_growth`` runs it for this
    depth, and is stored on the table.  Each gauge factor it evaluates feeds
    both its growth term and the coefficient.  A coefficient, its p-th power
    or the tail past the depth and its p-th power past the float range is a
    ``ConfigError``.
    """
    if K < 1.0:
        raise ConfigError(f"basis constant K must be >= 1, got {K}")
    if rule is None:
        rule = SequenceRule("affine")
    report, levels, factors = _growth(spec, p, rule, depth)
    if not report.passed:
        raise GrowthConditionError(
            f"gauge {spec.family} failed growth validation for p={p} "
            f"(no ratio <= {RATIO_CAP} certificate within {report.n_max} terms)"
        )
    coeffs = dict(zip(levels, (2.0 * K * f for f in factors)))
    # psi is nondecreasing and its arguments fall, so c at p_1 is the largest
    _require_in_range(f"coefficient at level {levels[0]}", coeffs[levels[0]], p)
    # tail_bound(table, depth): the first omitted index is len(levels) + 1
    tail = report.tail(len(levels) + 1, partial(growth_term, spec, p, rule), 2.0 * K, rule.max_index())
    _require_in_range(f"tail bound past depth {depth}", tail, p)
    return CoefficientTable(
        spec=spec,
        rule=rule,
        K=K,
        p=p,
        depth=depth,
        levels=levels,
        coeffs=coeffs,
        certificate=report,
    )


def tail_bound(table: CoefficientTable, N: int) -> float:
    """Certified bound on sum of c_(p_m) * (2^p_m)^(1/p) over all p_m > N >= 0:
    2K times the growth series from the first omitted index on."""
    term = partial(growth_term, table.spec, table.p, table.rule)
    m = len(table.rule.levels_within(N)) + 1  # the first omitted index
    return table.certificate.tail(m, term, 2.0 * table.K, table.rule.max_index())
