"""Seeded verification campaigns and report assembly.

Every campaign is a pure function of (model, config): all randomness comes
from the config seed, rows are emitted in a fixed order, and floats are
serialized with shortest round-trip repr, so identical configs produce
byte-identical reports.  Each row carries the inputs, the computed values,
the target bound, and a pass flag recomputable from the row's own columns.
Rows are recorded through ``Report.add``, which counts the failing ones, and
``Report.close`` writes that count as the summary's ``violations`` entry.
A report keeps its rows as typed columns, about 8 bytes a number, and
renders its text chunk by chunk; a config asking for more than
``MAX_REPORT_ROWS`` rows is refused before the first row.

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
import operator
import random
import statistics
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count, islice

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

#: Most rows a campaign config may ask for.  The headline lower-bound sweep
#: (8,191 dyadic rows) stays legal at 10^6 samples.
MAX_REPORT_ROWS = 1 << 21

_RATE_LIMIT_NOTE = (
    "vanishing-rate limit not decidable from finite samples; median trend is informative only"
)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs shared by all campaigns; unused fields are ignored per kind.
    A config whose ``report_rows`` pass ``MAX_REPORT_ROWS`` is refused."""

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
        if not 0 <= self.dyadic_level <= 63:  # 2^64 rows are past any ceiling
            raise ConfigError(f"need 0 <= dyadic_level <= 63, got {self.dyadic_level}")
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
        rows = self.report_rows()
        if rows > MAX_REPORT_ROWS:
            raise ConfigError(
                f"{self.kind} config asks for {rows} report rows, "
                f"past MAX_REPORT_ROWS = {MAX_REPORT_ROWS}"
            )

    def report_rows(self) -> int:
        """Rows the campaign asks for; blowup's count includes the grid
        points it skips.  Bochner and psi-validate rows follow the model's
        depth, so they count 0 here."""
        levels = self.j_max - self.j_min + 1
        if self.kind == LOWER_BOUND:
            return (2 << self.dyadic_level) - 1 + self.samples
        if self.kind == PAIRING:
            return self.samples * self.sets
        if self.kind == BLOWUP:
            return len(self.t_grid) * levels
        if self.kind == HALFPOWER:
            return self.samples * levels
        if self.kind == CONTINUOUS:
            return self.samples
        return 0


class Report:
    """Ordered rows plus a summary; serializes deterministically.

    Rows are kept as typed columns.  Rows from ``add`` or the constructor
    collect in a batch of ``_BATCH``; a full batch moves column by column
    into ``array('d')``, ``array('q')`` or ``array('b')`` buffers of 8, 8 and
    1 bytes a value.  A column whose values stop fitting its array (None, a
    str, an int past int64, a changed type) becomes a plain list.  ``rows``
    reads the columns back as tuples of the original types, and
    ``render_chunks`` writes the text chunk by chunk, so neither holds every
    row as a boxed tuple.
    """

    def __init__(
        self,
        campaign: str,
        columns: tuple[str, ...],
        rows: Iterable[tuple] = (),
        summary: dict | None = None,
        violations: int = 0,
    ) -> None:
        if not columns:
            raise ValueError("a report needs at least one column")
        self.campaign = campaign
        self.columns = columns
        self.summary = {} if summary is None else summary
        self.violations = violations
        self._columns: list[array | list] = [[] for _ in columns]
        self._count = 0  # rows in the columns
        self._batch: list[tuple] = []  # rows not yet in the columns
        self._rows = _Rows(self)
        rows = iter(rows)
        while batch := list(islice(rows, _BATCH)):
            self._batch = batch
            self._flush()

    @property
    def rows(self) -> Sequence[tuple]:
        """The rows, a read-only sequence of tuples."""
        return self._rows

    def add(self, row: tuple, ok: bool) -> None:
        """Append ``row``, counting a violation when ``ok`` is false."""
        batch = self._batch
        batch.append(row)
        if not ok:
            self.violations += 1
        if len(batch) >= _BATCH:
            self._flush()

    def close(self, **summary: object) -> Report:
        """Set the summary, ending with the violation count, and return the report."""
        self._flush()
        self.summary = {**summary, "violations": self.violations}
        return self

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return (
            (self.campaign, self.columns, self.summary, self.violations)
            == (other.campaign, other.columns, other.summary, other.violations)
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Report({self.campaign!r}, {len(self.rows)} rows, {self.violations} violations)"

    def _flush(self) -> None:
        """Move the batch into the columns.  Every column's new values are
        packed before any column grows, so a refused batch leaves the
        columns as they were."""
        batch = self._batch
        if not batch:
            return
        try:
            values = list(zip(*batch, strict=True))
        except ValueError:
            raise ValueError("report rows of unequal width") from None
        if len(values) != len(self._columns):
            raise ValueError(f"report rows of {len(values)} values for {len(self._columns)} columns")
        packed = [_pack(column, vals) for column, vals in zip(self._columns, values)]
        for j, (column, vals, new) in enumerate(zip(self._columns, values, packed)):
            if not column:
                self._columns[j] = list(vals) if new is None else new
            elif new is not None:
                column.extend(new)
            else:
                if isinstance(column, array):
                    column = self._columns[j] = list(_values(column))
                column.extend(vals)
        self._count += len(batch)
        self._batch = []

    def _slices(self) -> Iterator[list[array | list]]:
        """The columns in aligned slices of at most ``_BATCH`` rows."""
        self._flush()
        for i in range(0, self._count, _BATCH):
            yield [column[i : i + _BATCH] for column in self._columns]

    def render(self, fmt: str) -> str:
        """The report as one CSV or JSON text: ``render_chunks`` joined."""
        return "".join(self.render_chunks(fmt))

    def render_chunks(self, fmt: str) -> Iterator[str]:
        """The report text in pieces of at most ``_BATCH`` rows each.  An
        unknown format raises here, before any piece is made."""
        if fmt == "csv":
            return self._csv_chunks()
        if fmt == "json":
            return self._json_chunks()
        raise ConfigError(f"unknown report format {fmt!r}")

    def _csv_chunks(self) -> Iterator[str]:
        """CSV with one line per row, each value as ``_fmt`` writes it.

        A chunk whose every column slice holds one type of float, int or
        bool is formatted by one ``%`` operation, with the format string
        built once per column-type signature (``%r`` of a float is its repr,
        ``%d`` of a bool is 1 or 0); any other chunk falls back to ``_fmt``
        per value.
        """
        yield ",".join(self.columns) + "\n"
        formats: dict[tuple, str] = {}
        for slices in self._slices():
            kinds = tuple(map(_value_type, slices))
            if not _PACKED.keys() >= set(kinds):
                yield "".join(",".join(map(_fmt, row)) + "\n" for row in _rows_of(slices))
                continue
            key = (kinds, len(slices[0]))
            if key not in formats:
                line = ",".join(_PACKED[kind][1] for kind in kinds) + "\n"
                formats[key] = line * len(slices[0])
            yield formats[key] % tuple(chain.from_iterable(zip(*slices)))

    def to_json_obj(self) -> dict:
        """The report as strict JSON data: non-finite floats become the
        strings "inf", "-inf" and "nan", the spelling CSV reports use."""
        return {**self._json_frame(), "rows": [[_json_value(v) for v in r] for r in self.rows]}

    def _json_frame(self) -> dict:
        return {
            "campaign": self.campaign,
            "columns": list(self.columns),
            "rows": [],
            "summary": _json_value(self.summary),
            "violations": self.violations,
            "pass": self.passed,
        }

    def _json_chunks(self) -> Iterator[str]:
        """The text of ``to_json_obj()`` dumped with sorted keys and indent
        2: the frame's text with the rows spliced in chunk by chunk, each
        chunk dumped alone and indented one level deeper."""
        head, _, tail = _dumps(self._json_frame()).partition('"rows": []')
        if not self.rows:
            yield head + '"rows": []' + tail
            return
        yield head + '"rows": [\n'
        sep = ""
        for slices in self._slices():
            rows = _dumps([[_json_value(v) for v in row] for row in _rows_of(slices)])
            # '[\n  [...],\n  [...]\n]\n' -> '    [...],\n    [...]'
            yield sep + "  " + rows[2:-3].replace("\n", "\n  ")
            sep = ",\n"
        yield "\n  ]" + tail

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"[{status}] {self.campaign}: {len(self.rows)} rows, {self.violations} violations"]
        for key in sorted(self.summary):
            out.append(f"  {key}: {self.summary[key]}")
        return out


class _Rows(Sequence):
    """A report's rows, read from its columns: tuples of the original types."""

    __slots__ = ("_report",)

    def __init__(self, report: Report) -> None:
        self._report = report

    def __len__(self) -> int:
        return self._report._count + len(self._report._batch)

    def __iter__(self) -> Iterator[tuple]:
        for slices in self._report._slices():
            yield from _rows_of(slices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            self._report._flush()
            return list(zip(*(_values(column[index]) for column in self._report._columns)))
        n = len(self)
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError("report row index out of range")
        return self[i % n : i % n + 1][0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} rows of report {self._report.campaign!r}>"


#: Rows a report collects before it packs them into its columns, and the
#: rows in one rendered chunk.
_BATCH = 512

#: Per row value type: the array type code its column packs into, and the
#: %-format code that writes exactly what ``_fmt`` does.
_PACKED = {float: ("d", "%r"), int: ("q", "%d"), bool: ("b", "%d")}
_ARRAY_TYPES = {code: kind for kind, (code, _) in _PACKED.items()}


def _value_type(values: array | list) -> type | None:
    """The one type of a column's values, or None if they mix types."""
    if isinstance(values, array):
        return _ARRAY_TYPES[values.typecode]
    kinds = set(map(type, values))
    return kinds.pop() if len(kinds) == 1 else None


def _pack(column: array | list, values: tuple) -> array | None:
    """``values`` as an array that ``column`` can take, or None: values of
    one packed type, the column's own unless the column is empty, and each
    in range (an int past int64 is not)."""
    kind = _value_type(values)
    if kind not in _PACKED:
        return None
    code = _PACKED[kind][0]
    if column and not (isinstance(column, array) and column.typecode == code):
        return None
    try:
        return array(code, values)
    except OverflowError:
        return None


def _values(column: array | list) -> Iterable:
    """A column's values as stored, a bool array's read back as bool."""
    return map(bool, column) if isinstance(column, array) and column.typecode == "b" else column


def _rows_of(slices: list[array | list]) -> Iterator[tuple]:
    """The row tuples of aligned column slices."""
    return zip(*map(_values, slices))


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    idx = count()

    def emit(lo: float, hi: float) -> None:
        lower, upper = interval_bounds(model, lo, hi)
        measure = hi - lo
        target = eval_psi_total(model.psi, measure)
        ok = lower >= target
        report.add((next(idx), lo, hi, measure, target, lower, upper, ok), ok)

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
    idx = count()
    for x in functionals:
        qn = x.dual_norm()
        tol = PAIRING_SLACK * (1.0 + qn)
        for E, trunc in zip(interval_sets, truncations):
            lhs = trunc.apply(x)
            rhs = scalar_integral(model, x, E)
            err = abs(lhs - rhs)
            ok = err <= tol
            report.add((next(idx), qn, lhs, rhs, err, tol, ok), ok)
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
    # per scale delta = 2^-g: the largest lhs over pairs at distance <= delta,
    # kept as max() would over them in row order, and the pair count
    deltas = [math.ldexp(1.0, -g) for g in DELTA_LEVELS]
    sups: list[float | None] = [None] * len(deltas)
    pairs = [0] * len(deltas)
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
        for i, delta in enumerate(deltas):
            if d > delta:
                break  # DELTA_LEVELS rise, so the scales fall
            pairs[i] += 1
            if sups[i] is None or pc.lhs > sups[i]:
                sups[i] = pc.lhs
        report.add((s, t, d, pc.lhs, pc.rhs, pc.holds, mod, mod_ok), pc.holds and mod_ok)
        accepted += 1
    delta_table = {
        str(g): {
            "delta": delta,
            "observed_sup": 0.0 if sup is None else sup,
            "bound": lipschitz * delta + tail2,
            "pairs": n,
        }
        for g, delta, sup, n in zip(DELTA_LEVELS, deltas, sups, pairs)
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
