"""Seeded verification campaigns and report assembly.

Every campaign is a pure function of (model, config): all randomness comes
from the config seed, rows are emitted in a fixed order, and floats are
serialized with shortest round-trip repr, so identical configs produce
byte-identical reports.  Each row carries the inputs, the computed values,
the target bound, and a pass flag recomputable from the row's own columns.
Rows are recorded through ``Report.add``, which counts the failing ones, and
``Report.close`` writes that count as the summary's ``violations`` entry.

``VERIFY_CAMPAIGNS`` maps each ``verify`` kind to its runner and the model
class the runner needs; ``run`` dispatches through it.  ``psi-validate``
takes a gauge rather than a model and is called directly.

Hard assertions always use the sound side of an enclosure (the lower bound
against gauge targets).  Each pass flag is a plain float comparison of two of
its row's own columns, with no slack: a row whose value falls short of its
target by any amount fails.  ``PAIRING_SLACK`` is the one tolerance, because
the pairing row compares two float computations of one number.

The averaged-rate campaign additionally reports a median trend without
asserting any limit: a vanishing-rate statement over all points is not
decidable from finitely many samples, and the summary says so explicitly.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field

from .blocks import Functional
from .continuous import ContinuousModel, check_pair
from .errors import ConfigError, DepthInsufficientError
from .intervals import Interval, IntervalSet
from .pettis import (PettisModel, bochner_level_masses, interval_bounds, scalar_integral,
                     truncated_integral)
from .psi import (
    RATIO_CAP, PsiSpec, SequenceRule, eval_psi_total, validate_growth, validate_summable,
)

LOWER_BOUND = "lower-bound"
PAIRING = "pairing"
BLOWUP = "blowup"
HALFPOWER = "halfpower"
CONTINUOUS = "continuous"
BOCHNER = "bochner"
PSI_VALIDATE = "psi-validate"

#: Relative slack on the two-code-path pairing identity, the one tolerance.
PAIRING_SLACK = 1e-9

#: Pairing samples: at most this many parts per interval set, and this many
#: coordinates per functional.
SET_PARTS_MAX = 4
SUPPORT_MAX = 8

#: Continuous campaign: the modulus table's scales delta = 2^-g.
DELTA_LEVELS = (2, 3, 4, 5, 6, 7, 8)

_RATE_LIMIT_NOTE = (
    "vanishing-rate limit not decidable from finite samples; median trend is informative only"
)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs shared by all campaigns; unused fields are ignored per kind."""

    kind: str
    samples: int = 10_000
    seed: int = 20260810
    dyadic_level: int = 12
    t_grid: tuple[float, ...] = (0.0, 0.3, 1.0 / 3.0, 0.9)
    j_min: int = 4
    j_max: int = 20
    interval: tuple[float, float] = (0.25, 0.5)
    sets: int = 50
    out: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.kind not in VERIFY_CAMPAIGNS and self.kind != PSI_VALIDATE:
            raise ConfigError(f"unknown campaign kind {self.kind!r}")
        # type(...) is int also turns away bool, which JSON true/false become.
        for name in ("samples", "seed", "dyadic_level", "j_min", "j_max", "sets"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("samples", "sets"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dyadic_level < 0:
            raise ConfigError(f"dyadic_level must be >= 0, got {self.dyadic_level}")
        if not self.t_grid:
            raise ConfigError("t_grid must hold at least one value")
        if not all(0.0 <= t < 1.0 for t in self.t_grid):
            raise ConfigError(f"t_grid values must lie in [0, 1), got {list(self.t_grid)}")
        if not (0 <= self.j_min < self.j_max <= 40):
            raise ConfigError(f"need 0 <= j_min < j_max <= 40, got [{self.j_min}, {self.j_max}]")
        if self.kind == HALFPOWER and self.j_min < 1:
            # t is drawn from [0, 1 - 2^-j_min), which is {0} at j_min 0
            raise ConfigError(f"halfpower needs j_min >= 1, got {self.j_min}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


@dataclass
class Report:
    """Ordered rows plus a summary; serializes deterministically."""

    campaign: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    violations: int = 0

    def add(self, row: tuple, ok: bool) -> None:
        """Append ``row``, counting a violation when ``ok`` is false."""
        self.rows.append(row)
        if not ok:
            self.violations += 1

    def close(self, **summary: object) -> Report:
        """Set the summary, ending with the violation count, and return the report."""
        self.summary = {**summary, "violations": self.violations}
        return self

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_csv_text(self) -> str:
        """CSV with one line per row, each value as ``_fmt`` writes it.

        A row of floats, ints and bools is formatted by one ``%`` operation
        with a format string built once per row-type signature (``%r`` of a
        float is its repr, ``%d`` of a bool is 1 or 0); a row holding any
        other type, None included, falls back to ``_fmt`` per value.
        """
        lines = [",".join(self.columns)]
        formats: dict[tuple[type, ...], str | None] = {}
        for row in self.rows:
            # an exact-size key: tuple(map(...)) over-allocates, shrinks, and
            # leaves up to 2,000 freed tuples (0.2 MB) on CPython's free list
            sig = (*map(type, row),)
            if sig not in formats:
                codes = [_FORMAT_CODES.get(t) for t in sig]
                formats[sig] = None if None in codes else ",".join(codes)
            fmt = formats[sig]
            lines.append(fmt % row if fmt is not None else ",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        """The report as strict JSON data: non-finite floats become the
        strings "inf", "-inf" and "nan", the spelling CSV reports use."""
        return {
            "campaign": self.campaign,
            "columns": list(self.columns),
            "rows": [[_json_value(v) for v in r] for r in self.rows],
            "summary": _json_value(self.summary),
            "violations": self.violations,
            "pass": self.passed,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2, allow_nan=False) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv_text()
        if fmt == "json":
            return self.to_json_text()
        raise ConfigError(f"unknown report format {fmt!r}")

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"[{status}] {self.campaign}: {len(self.rows)} rows, {self.violations} violations"]
        for key in sorted(self.summary):
            out.append(f"  {key}: {self.summary[key]}")
        return out


#: %-format code per row value type that writes exactly what ``_fmt`` does.
_FORMAT_CODES = {float: "%r", int: "%d", bool: "%d"}


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _json_value(v: object) -> object:
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # "inf", "-inf" or "nan"
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# Samplers (all driven by the config seed)
# ---------------------------------------------------------------------------


def _random_interval_set(rng: random.Random) -> IntervalSet:
    parts = rng.randint(1, SET_PARTS_MAX)
    points = sorted(rng.random() for _ in range(2 * parts))
    return IntervalSet.of(
        *(Interval(points[2 * i], points[2 * i + 1]) for i in range(parts))
    )


def _random_functional(rng: random.Random, model: PettisModel) -> Functional:
    size = rng.randint(1, SUPPORT_MAX)
    coeffs: dict[tuple[int, int], float] = {}
    for _ in range(size):
        n = rng.randint(1, model.depth)
        k = rng.randint(1, 1 << n)
        coeffs[(n, k)] = rng.uniform(-1.0, 1.0)
    return Functional(model.layout, coeffs)


def _certified_floor(model: PettisModel, name: str, j: int) -> float:
    """Smallest interval measure for which the truncated chain is provable.

    Refuses a campaign whose intervals of measure 2^-j, ``j`` being its
    setting ``name``, lie below that floor, where the model proves nothing.
    """
    levels = model.table.levels
    if len(levels) < 2:
        raise DepthInsufficientError("model realizes fewer than two levels")
    floor = math.ldexp(4.0, -levels[-2])
    if math.ldexp(1.0, -j) < floor:
        raise DepthInsufficientError(f"{name} {j} gives intervals below the certified floor {floor}")
    return floor


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def run_lower_bound_sweep(model: PettisModel, cfg: CampaignConfig) -> Report:
    """Interval lower bound: enclosure lower >= psi(measure) on every row.

    Sweeps all dyadic cells up to cfg.dyadic_level plus cfg.samples seeded
    random intervals above the certified measure floor.  Each row's bounds
    are ``interval_bounds``, the floats ``pettis_integral`` gives.
    """
    floor = _certified_floor(model, "dyadic_level", cfg.dyadic_level)
    report = Report(LOWER_BOUND, ("idx", "lo", "hi", "measure", "psi", "lower", "upper", "pass"))

    def emit(lo: float, hi: float) -> None:
        lower, upper = interval_bounds(model, lo, hi)
        measure = hi - lo
        target = eval_psi_total(model.psi, measure)
        ok = lower >= target
        report.add((len(report.rows), lo, hi, measure, target, lower, upper, ok), ok)

    for m in range(cfg.dyadic_level + 1):
        for k in range(1, (1 << m) + 1):
            emit(math.ldexp(k - 1, -m), math.ldexp(k, -m))
    dyadic_rows = len(report.rows)
    rng = random.Random(cfg.seed)
    rejected = 0
    accepted = 0
    while accepted < cfg.samples:
        a, b = rng.random(), rng.random()
        lo, hi = (a, b) if a <= b else (b, a)
        if hi - lo < floor:
            rejected += 1
            if rejected > 100 * cfg.samples + 1000:
                raise DepthInsufficientError("random sampling rejected too often; deepen the model")
            continue
        emit(lo, hi)
        accepted += 1
    return report.close(dyadic_rows=dyadic_rows, random_rows=accepted,
                        rejected_samples=rejected, measure_floor=floor)


def run_pairing_check(model: PettisModel, cfg: CampaignConfig) -> Report:
    """Pairing identity: functional-of-integral equals integral-of-pairing.

    The left side pairs the functional with ``truncated_integral``, built
    once per interval set; the right side is ``scalar_integral``, which
    measures each carrier's share of E in closed form over the slice pattern
    for built-in families and by set intersection for explicit ones.  The
    oracle never calls ``overlap``, ``pattern`` or ``slice_overlap``, the
    carrier geometry the truncation reads, so the two code paths share only
    the interval data itself.
    """
    rng = random.Random(cfg.seed)
    functionals = [_random_functional(rng, model) for _ in range(cfg.samples)]
    interval_sets = [_random_interval_set(rng) for _ in range(cfg.sets)]
    truncations = [truncated_integral(model, E) for E in interval_sets]
    report = Report(PAIRING, ("idx", "functional_norm", "lhs", "rhs", "abs_err", "tol", "pass"))
    for x in functionals:
        qn = x.dual_norm()
        tol = PAIRING_SLACK * (1.0 + qn)
        for E, trunc in zip(interval_sets, truncations):
            lhs = trunc.apply(x)
            rhs = scalar_integral(model, x, E)
            err = abs(lhs - rhs)
            ok = err <= tol
            report.add((len(report.rows), qn, lhs, rhs, err, tol, ok), ok)
    return report.close(functionals=len(functionals), interval_sets=len(interval_sets))


def run_blowup(model: PettisModel, cfg: CampaignConfig) -> Report:
    """Averaged-integral blow-up: (1/h) * lower >= psi(h)/h on a (t, j) grid."""
    _certified_floor(model, "j_max", cfg.j_max)
    report = Report(BLOWUP, ("t", "j", "h", "lower_over_h", "floor", "pass"))
    skipped = 0
    for t in cfg.t_grid:
        for j in range(cfg.j_min, cfg.j_max + 1):
            h = math.ldexp(1.0, -j)
            if t + h > 1.0:
                skipped += 1
                continue
            lower, _ = interval_bounds(model, t, t + h)
            target = eval_psi_total(model.psi, h)
            ok = lower >= target
            report.add((t, j, h, lower / h, target / h, ok), ok)
    if not report.rows:
        raise ConfigError(
            f"every blowup grid point has t + 2^-j > 1: t_grid {list(cfg.t_grid)}, "
            f"j {cfg.j_min}..{cfg.j_max}"
        )
    return report.close(grid_points=len(report.rows), skipped_out_of_domain=skipped)


def run_halfpower_statistic(model: PettisModel, cfg: CampaignConfig) -> Report:
    """Square-root-rate regime: hard floor assertion plus a median trend.

    Asserts only the floor h^(-1/2) * lower >= psi(h) / sqrt(h) on the
    certified lower bound, the sound side; the almost-everywhere
    vanishing-rate statement is flagged as not decidable and reported as a
    per-j median of the normalized rates.  Like blowup, it refuses a j_max
    below the certified floor.
    """
    if model.p != 2.0:
        raise ConfigError("halfpower campaign requires the p = 2 backend")
    _certified_floor(model, "j_max", cfg.j_max)
    rng = random.Random(cfg.seed)
    h_max = math.ldexp(1.0, -cfg.j_min)
    ts = [rng.random() * (1.0 - h_max) for _ in range(cfg.samples)]
    report = Report(HALFPOWER, ("t", "j", "h", "ratio", "floor", "pass"))
    per_j: dict[int, list[float]] = {j: [] for j in range(cfg.j_min, cfg.j_max + 1)}
    for t in ts:
        for j in range(cfg.j_min, cfg.j_max + 1):
            h = math.ldexp(1.0, -j)
            lower, _ = interval_bounds(model, t, t + h)
            ratio = lower / math.sqrt(h)
            bound = eval_psi_total(model.psi, h) / math.sqrt(h)
            ok = ratio >= bound
            per_j[j].append(ratio)
            report.add((t, j, h, ratio, bound, ok), ok)
    trend = {str(j): statistics.median(v) for j, v in per_j.items() if v}
    return report.close(note=_RATE_LIMIT_NOTE, median_trend=trend)


def run_continuous_campaign(model: ContinuousModel, cfg: CampaignConfig) -> Report:
    """Everywhere separation plus the uniform-continuity modulus witness."""
    rng = random.Random(cfg.seed)
    floor = model.separation_floor()
    report = Report(CONTINUOUS, ("s", "t", "dist", "lhs", "rhs", "pass", "modulus", "modulus_pass"))
    rejected = 0
    lipschitz = model.lipschitz_constant()
    tail2 = 2.0 * model.tail()
    accepted = 0
    observed: list[tuple[float, float]] = []
    while accepted < cfg.samples:
        s, t = rng.random(), rng.random()
        d = abs(s - t)
        if d <= floor:
            rejected += 1
            if rejected > 100 * cfg.samples + 1000:
                raise DepthInsufficientError("pair sampling rejected too often; deepen the model")
            continue
        pc = check_pair(model, s, t)
        mod = lipschitz * d + tail2
        mod_ok = pc.lhs <= mod
        observed.append((d, pc.lhs))
        report.add((s, t, d, pc.lhs, pc.rhs, pc.holds, mod, mod_ok), pc.holds and mod_ok)
        accepted += 1
    delta_table = {}
    for g in DELTA_LEVELS:
        delta = math.ldexp(1.0, -g)
        close = [lhs for d, lhs in observed if d <= delta]
        delta_table[str(g)] = {
            "delta": delta,
            "observed_sup": max(close, default=0.0),
            "bound": lipschitz * delta + tail2,
            "pairs": len(close),
        }
    return report.close(pairs=accepted, rejected_too_close=rejected, distance_floor=floor,
                        modulus_table=delta_table)


def run_bochner_divergence(model: PettisModel, cfg: CampaignConfig) -> Report:
    """Strong-norm partial sums on a fixed interval: monotone, ratio-growing.

    Row N asserts S_N >= S_(N-1) and, inside the certified window,
    S_N >= 1.5 * S_(N-4).
    """
    lo, hi = cfg.interval
    if not (0.0 <= lo < hi <= 1.0):
        raise ConfigError(f"bochner campaign needs an interval of positive measure, got {cfg.interval}")
    iv = Interval(lo, hi)
    masses = bochner_level_masses(model, iv)
    partial = []
    acc = 0.0
    for n in range(1, model.depth + 1):
        acc += masses.get(n, 0.0)
        partial.append(acc)
    report = Report(BOCHNER, ("N", "s", "s_prev", "s_prev4", "ratio4", "pass"))
    for n in range(1, model.depth + 1):
        s = partial[n - 1]
        s_prev = partial[n - 2] if n >= 2 else 0.0
        s_prev4 = partial[n - 5] if n >= 5 else None
        ratio4 = (s / s_prev4) if s_prev4 else None
        ok = s >= s_prev
        if n >= 12 and ratio4 is not None:
            ok = ok and ratio4 >= 1.5
        report.add((n, s, s_prev, s_prev4, ratio4, ok), ok)
    return report.close(interval=[lo, hi], final_partial_sum=partial[-1],
                        certified_window=[12, model.depth])


def run_psi_validate(
    spec: PsiSpec,
    p: float,
    rule: SequenceRule,
    depth: int = 24,
    continuous: bool = False,
) -> Report:
    """The certificate a model of this depth is built on, as a report: the
    growth certificate at p for a pettis model, the summability certificate
    (the p = inf series) for a continuous one.  FAIL is a finding, not an error."""
    if continuous:
        report = validate_summable(spec, rule, depth)
    else:
        report = validate_growth(spec, p, rule, depth)
    columns = ("n", "p_n", "term", "ratio", "certified")
    rows: list[tuple] = []
    for i, term in enumerate(report.terms, start=1):
        ratio = report.terms[i - 1] / report.terms[i - 2] if i >= 2 and report.terms[i - 2] > 0 else None
        certified = report.passed and report.n0 is not None and i >= report.n0
        rows.append((i, rule.term(i), term, ratio, certified))
    violations = 0 if report.passed else 1
    summary = {
        "pass": report.passed,
        "n0": report.n0,
        "ratio": report.ratio,
        "r_max": RATIO_CAP,
        "n_max": report.n_max,
        "p": "inf" if math.isinf(report.p) else report.p,
    }
    return Report(PSI_VALIDATE, columns, rows, summary, violations)


#: verify kind -> (runner, model class it needs); the CLI's ``verify`` subcommands.
VERIFY_CAMPAIGNS = {
    LOWER_BOUND: (run_lower_bound_sweep, PettisModel),
    PAIRING: (run_pairing_check, PettisModel),
    BLOWUP: (run_blowup, PettisModel),
    HALFPOWER: (run_halfpower_statistic, PettisModel),
    CONTINUOUS: (run_continuous_campaign, ContinuousModel),
    BOCHNER: (run_bochner_divergence, PettisModel),
}


def run(model: PettisModel | ContinuousModel, cfg: CampaignConfig) -> Report:
    """Run the verify campaign ``cfg.kind`` on a model of the kind it needs."""
    if cfg.kind not in VERIFY_CAMPAIGNS:
        raise ConfigError(f"{cfg.kind} is not a verify campaign")
    runner, model_class = VERIFY_CAMPAIGNS[cfg.kind]
    if not isinstance(model, model_class):
        needed = "continuous" if model_class is ContinuousModel else "pettis"
        raise ConfigError(f"{cfg.kind} campaign needs a {needed} model")
    return runner(model, cfg)
