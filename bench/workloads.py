"""The benchmark workloads and the staged path each one runs.

BENCHMARK.json declares all four: lower-bound-ref24 (the enclosure work),
continuous-ref9 (its no-change control), pairing-strat12 (multi-part
carriers and interval intersection) and archive-d16 (archive write,
reload and the explicit family's clipped overlaps).

Every workload follows the CLI's path through the public API:
``config.load_json`` -> ``build_model_from_config`` -> campaign runner ->
``Report.render`` -> write.  The benchmark only generates config files from
the seed; the program sees nothing else.

This module also holds the benchmark's own output checks.  They recompute
each row's assertion from the row's columns with the gauge taken from the
workload definition, so a report that marks a wrong row as passing still
counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

#: Power-3/4 gauge, l_2, depth 24, greedy-gap carriers (the reference model).
REF24_MODEL = {
    "kind": "pettis",
    "psi": {"family": "power", "exponent": 0.75},
    "K": 1.0,
    "p": 2.0,
    "rule": {"kind": "affine", "a": 1, "b": 0},
    "depth": 24,
    "carriers": {"scheme": "greedy-gap"},
}

#: s^(1/4) gauge, p_n = 4n, depth 9 (the reference continuous model).
REF9_CONTINUOUS = {
    "kind": "continuous",
    "psi": {"family": "power", "exponent": 0.25},
    "K": 1.0,
    "rule": {"kind": "affine", "a": 4, "b": 0},
    "depth": 9,
}

#: Slacks the checks allow; they match the campaigns' documented tolerances.
BOUND_SLACK = 1e-12
PAIRING_SLACK = 1e-9
MODULUS_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    campaign_kind: str
    model: dict
    campaign: dict = field(default_factory=dict)
    archive: bool = False
    #: Campaign seeds one untraced run cycles through; see run.input_seeds.
    inputs_per_run: int = 1
    tiny_model: dict = field(default_factory=dict)
    tiny_campaign: dict = field(default_factory=dict)

    def tiny(self) -> "Workload":
        """Same workload at a size that runs in well under a second."""
        return replace(
            self,
            model={**self.model, **self.tiny_model},
            campaign={**self.campaign, **self.tiny_campaign},
        )

    @property
    def exponent(self) -> float:
        return float(self.model["psi"]["exponent"])

    def expected_rows(self) -> int:
        c = self.campaign
        if self.campaign_kind == "lower-bound":
            return (1 << (c["dyadic_level"] + 1)) - 1 + c["samples"]
        if self.campaign_kind == "pairing":
            return c["samples"] * c["sets"]
        return c["samples"]

    def sizes(self) -> dict:
        return {
            "campaign": self.campaign_kind,
            "model": self.model,
            "campaign_params": self.campaign,
            "archive": self.archive,
            "inputs_per_run": self.inputs_per_run,
            "expected_rows": self.expected_rows(),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lower-bound-ref24",
            why="headline certificate: pettis_integral, greedy-gap overlap and tail bounds on 18,191 intervals",
            campaign_kind="lower-bound",
            model=REF24_MODEL,
            campaign={"samples": 10_000, "dyadic_level": 12},
            tiny_campaign={"samples": 100, "dyadic_level": 4},
        ),
        Workload(
            name="continuous-ref9",
            why="block vectors and continuous walks on 10^4 pairs; no carriers or pettis, so the control for enclosure work",
            campaign_kind="continuous",
            model=REF9_CONTINUOUS,
            campaign={"samples": 10_000},
            tiny_campaign={"samples": 200},
        ),
        Workload(
            name="pairing-strat12",
            why="exact scalar oracle on stratified carriers of up to 2^11 parts: interval intersection and carrier materialization",
            campaign_kind="pairing",
            model={**REF24_MODEL, "depth": 12, "carriers": {"scheme": "stratified"}},
            # The oracle's cost follows the levels the random functionals
            # draw: one report of 1,000 rows still costs 15% more or less
            # from seed to seed, and one of 200 rows up to 2x.  Short
            # reports on sixteen seeds per run average over 1,600
            # functionals instead.
            campaign={"samples": 100, "sets": 2},
            inputs_per_run=16,
            tiny_model={"depth": 8},
            tiny_campaign={"samples": 3, "sets": 2},
        ),
        Workload(
            name="archive-d16",
            why="build, write, reload and re-verify a depth-16 archive, then a small lower-bound campaign on the explicit family",
            campaign_kind="lower-bound",
            model={**REF24_MODEL, "depth": 16},
            campaign={"samples": 1_000, "dyadic_level": 8},
            archive=True,
            tiny_model={"depth": 8},
            tiny_campaign={"samples": 50, "dyadic_level": 4},
        ),
    )
}


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated files inside a scratch directory."""

    config: str  # the config the verify step reads
    build_config: str | None  # archive workloads: the config `build` reads
    archive: str | None
    report: str


def write_inputs(w: Workload, seed: int, directory: str) -> Inputs:
    """Write the config file(s) the program receives; nothing else is shared."""
    campaign = {"kind": w.campaign_kind, "seed": seed, "format": "csv", **w.campaign}
    report = os.path.join(directory, "report.csv")
    if not w.archive:
        config = _dump(directory, "config.json", {"model": w.model, "campaign": campaign})
        return Inputs(config, None, None, report)
    archive = os.path.join(directory, "archive.json")
    build_config = _dump(directory, "build.json", {"model": w.model})
    config = _dump(directory, "verify.json", {"model": {"archive": archive}, "campaign": campaign})
    return Inputs(config, build_config, archive, report)


def _dump(directory: str, name: str, obj: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
    return path


# ---------------------------------------------------------------------------
# The staged path
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    """Timings and outputs of one pass from config file to report bytes."""

    setup_s: float
    campaign_s: float
    render_s: float
    write_s: float
    total_s: float
    cfg: object  # campaigns.CampaignConfig
    report: object  # campaigns.Report
    text: str
    archive_sha256: str | None
    written_bytes: int

    @property
    def rows(self) -> int:
        return len(self.report.rows)

    @property
    def rows_per_s(self) -> float:
        return self.rows / (self.campaign_s + self.render_s)

    def renders_same(self) -> bool:
        """A second render of the same report gives the same bytes."""
        return self.report.render(self.cfg.format) == self.text


def setup(w: Workload, inputs: Inputs):
    """Config load and model build; on archive workloads also build, verify,
    write, reload and re-verify the archive (what `pettis-forge build` does,
    then what `verify` does with an archive config)."""
    from pettis_forge import campaigns
    from pettis_forge.carriers import verify_disjointness
    from pettis_forge.config import (
        build_campaign_from_config,
        build_model_from_config,
        load_json,
        write_archive,
    )
    from pettis_forge.pettis import PettisModel

    if w.archive:
        built = build_model_from_config(load_json(inputs.build_config)["model"])
        if isinstance(built, PettisModel):
            report = verify_disjointness(built.carriers)
            if not report.passed:
                raise RuntimeError(f"disjointness violated: {report.violations[0]}")
        write_archive(built, inputs.archive)
    obj = load_json(inputs.config)
    model = build_model_from_config(obj["model"])
    cfg = build_campaign_from_config(obj.get("campaign") or {}, kind=w.campaign_kind)
    runner = {
        campaigns.LOWER_BOUND: campaigns.run_lower_bound_sweep,
        campaigns.PAIRING: campaigns.run_pairing_check,
        campaigns.CONTINUOUS: campaigns.run_continuous_campaign,
    }[w.campaign_kind]
    return model, cfg, runner


def run_iteration(w: Workload, inputs: Inputs, span=None) -> Iteration:
    """One staged pass.  ``span(name)`` is an optional context manager the
    traced run uses to mark the stages; the plain run passes None."""
    span = span or (lambda name: contextlib.nullcontext())
    clock = time.perf_counter
    t0 = clock()
    with span("stage.setup"):
        model, cfg, runner = setup(w, inputs)
    t1 = clock()
    with span("stage.campaign"):
        report = runner(model, cfg)
    t2 = clock()
    with span("stage.render"):
        text = report.render(cfg.format)
    t3 = clock()
    with span("stage.write"):
        with open(inputs.report, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    t4 = clock()
    written = os.path.getsize(inputs.report)
    archive_digest = None
    if inputs.archive:
        written += os.path.getsize(inputs.archive)
        archive_digest = file_sha256(inputs.archive)
    return Iteration(
        setup_s=t1 - t0,
        campaign_s=t2 - t1,
        render_s=t3 - t2,
        write_s=t4 - t3,
        total_s=t4 - t0,
        cfg=cfg,
        report=report,
        text=text,
        archive_sha256=archive_digest,
        written_bytes=written,
    )


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def failed_rows(w: Workload, text: str) -> int:
    """Rows whose pass flag is 0 or whose assertion does not hold when
    recomputed from the row's own columns.  Raises ValueError on a report
    whose header is not the campaign's."""
    lines = iter(csv.reader(text.splitlines()))
    header = next(lines, None)
    check = _ROW_CHECKS[w.campaign_kind]
    if tuple(header or ()) != check.columns:
        raise ValueError(f"unexpected report header {header!r}")
    e = w.exponent
    return sum(1 for row in lines if not check(row, e))


class _RowCheck:
    def __init__(self, columns: tuple[str, ...], fn) -> None:
        self.columns = columns
        self.fn = fn

    def __call__(self, row: list[str], exponent: float) -> bool:
        if len(row) != len(self.columns):
            return False
        try:
            return self.fn(dict(zip(self.columns, row)), exponent)
        except ValueError:
            return False


def _lower_bound_ok(r: dict, e: float) -> bool:
    lo, hi, lower, upper = float(r["lo"]), float(r["hi"]), float(r["lower"]), float(r["upper"])
    return (
        r["pass"] == "1"
        and 0.0 <= lo < hi <= 1.0
        and lower <= upper
        and lower >= (hi - lo) ** e - BOUND_SLACK
    )


def _continuous_ok(r: dict, e: float) -> bool:
    s, t, lhs, mod = float(r["s"]), float(r["t"]), float(r["lhs"]), float(r["modulus"])
    return (
        r["pass"] == "1"
        and r["modulus_pass"] == "1"
        and lhs >= abs(s - t) ** e - BOUND_SLACK
        and lhs <= mod * (1.0 + MODULUS_SLACK)
    )


def _pairing_ok(r: dict, e: float) -> bool:
    qn, lhs, rhs = float(r["functional_norm"]), float(r["lhs"]), float(r["rhs"])
    return r["pass"] == "1" and math.isfinite(lhs) and abs(lhs - rhs) <= PAIRING_SLACK * (1.0 + qn)


_ROW_CHECKS = {
    "lower-bound": _RowCheck(
        ("idx", "lo", "hi", "measure", "psi", "lower", "upper", "pass"), _lower_bound_ok
    ),
    "continuous": _RowCheck(
        ("s", "t", "dist", "lhs", "rhs", "pass", "modulus", "modulus_pass"), _continuous_ok
    ),
    "pairing": _RowCheck(
        ("idx", "functional_norm", "lhs", "rhs", "abs_err", "tol", "pass"), _pairing_ok
    ),
}


def cli_bytes(w: Workload, inputs: Inputs) -> tuple[bytes, bytes | None, int]:
    """Report (and archive) bytes written by ``cli.main`` for the same
    config, plus the verify exit code."""
    import io

    from pettis_forge import cli

    root, _ = os.path.splitext(inputs.report)
    report = root + "-cli.csv"
    archive = None
    with contextlib.redirect_stdout(io.StringIO()):
        if w.archive:
            code = cli.main(["build", "--config", inputs.build_config, "--out", inputs.archive])
            if code != 0:
                return b"", None, code
            archive = read_bytes(inputs.archive)
        code = cli.main(["verify", w.campaign_kind, "--config", inputs.config, "--out", report])
    out = read_bytes(report) if os.path.exists(report) else b""
    return out, archive, code


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
