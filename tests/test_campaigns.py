"""Campaigns: assertions, summaries, reproducibility, CLI exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import time

import pytest

from pettis_forge import (
    CampaignConfig,
    CarrierFamily,
    Interval,
    PsiSpec,
    SequenceRule,
    allocate_carriers,
    build_continuous_model,
    build_model,
    pettis_integral,
    run_blowup,
    run_bochner_divergence,
    run_continuous_campaign,
    run_halfpower_statistic,
    run_lower_bound_sweep,
    run_pairing_check,
    run_psi_validate,
    verify_disjointness,
)
from pettis_forge import campaigns, cli
from pettis_forge import config as config_module
from pettis_forge.config import (
    archive_model,
    build_campaign_from_config,
    build_model_from_config,
    load_archive,
    write_archive,
)
from pettis_forge.errors import ConfigError, DepthInsufficientError, GrowthConditionError
from pettis_forge.pettis import PettisModel


def _small_model(depth=12):
    return build_model(None, PsiSpec("power", exponent=0.75), depth=depth)


def test_lower_bound_rows_and_recomputability(model12):
    cfg = CampaignConfig("lower-bound", samples=300, dyadic_level=6, seed=5)
    rep = run_lower_bound_sweep(model12, cfg)
    assert rep.passed
    assert len(rep.rows) == (2**7 - 1) + 300
    assert rep.summary["dyadic_rows"] == 2**7 - 1
    for row in rep.rows[:50]:
        idx, lo, hi, mes, psi, lower, upper, ok = row
        assert mes == hi - lo
        assert ok == (lower >= psi)
        assert lower <= upper


def test_lower_bound_depth_guard(model12):
    with pytest.raises(DepthInsufficientError):
        run_lower_bound_sweep(model12, CampaignConfig("lower-bound", dyadic_level=12, samples=5))


def test_pairing_campaign(model12):
    cfg = CampaignConfig("pairing", samples=12, sets=9, seed=5)
    rep = run_pairing_check(model12, cfg)
    assert rep.passed
    assert len(rep.rows) == 12 * 9
    for row in rep.rows:
        _, qn, lhs, rhs, err, tol, ok = row
        assert err == abs(lhs - rhs)
        assert tol == 1e-9 * (1.0 + qn)
        assert ok == (err <= tol)


def test_pairing_campaign_deep_stratified():
    """The oracle never materializes a built-in carrier: at depth 26 a
    level-1 stratified carrier would have 2^25 parts, past PART_LIMIT."""
    deep = build_model(allocate_carriers(26, "stratified"), PsiSpec("power", exponent=0.75),
                       depth=26)
    assert run_pairing_check(deep, CampaignConfig("pairing", samples=200, sets=4, seed=7)).passed
    # the oracle's cost does not grow like 2^(depth - n): 25 pairs at depth 20 in under 1 s
    model = build_model(allocate_carriers(20, "stratified"), PsiSpec("power", exponent=0.75),
                        depth=20)
    start = time.perf_counter()
    rep = run_pairing_check(model, CampaignConfig("pairing", samples=25, sets=1, seed=11))
    assert time.perf_counter() - start < 1.0
    assert rep.passed and len(rep.rows) == 25


def test_blowup_campaign(model12):
    cfg = CampaignConfig("blowup", j_min=2, j_max=8, t_grid=(0.0, 0.5, 0.99), seed=5)
    rep = run_blowup(model12, cfg)
    assert rep.passed
    # 0.99 + 2^-j > 1 for j <= 6: those grid points are skipped
    assert rep.summary["skipped_out_of_domain"] == 5
    for t, j, h, value, floor, ok in rep.rows:
        assert h == math.ldexp(1.0, -j)
        assert value >= floor - 1e-9
        assert ok


def test_blowup_depth_guard(model12):
    """Blowup and halfpower refuse a j_max below the certified floor (2^-9 at
    depth 12) on the same (t, j) grid, rather than report rows the truncated
    model cannot certify."""
    with pytest.raises(DepthInsufficientError):
        run_blowup(model12, CampaignConfig("blowup", j_min=4, j_max=12))
    for kind in (campaigns.BLOWUP, campaigns.HALFPOWER):
        cfg = CampaignConfig(kind, samples=20, j_min=4, j_max=30)
        with pytest.raises(DepthInsufficientError, match="j_max 30 gives intervals below"):
            campaigns.run(model12, cfg)


def test_halfpower_campaign(model12):
    cfg = CampaignConfig("halfpower", samples=25, j_min=4, j_max=9, seed=5)
    rep = run_halfpower_statistic(model12, cfg)
    assert rep.passed
    assert "not decidable" in rep.summary["note"]
    trend = rep.summary["median_trend"]
    assert set(trend) == {str(j) for j in range(4, 10)}
    for t, j, h, ratio, floor, ok in rep.rows[:40]:
        assert ok == (ratio >= floor)
        assert ratio == pettis_integral(model12, Interval(t, t + h)).lower / math.sqrt(h)


def test_halfpower_requires_l2():
    model = build_model(None, PsiSpec("power", exponent=1.25), p=1.0, depth=8)
    with pytest.raises(ConfigError):
        run_halfpower_statistic(model, CampaignConfig("halfpower", samples=2, j_min=2, j_max=4))


def test_bochner_campaign(model12):
    cfg = CampaignConfig("bochner", interval=(0.25, 0.5))
    rep = run_bochner_divergence(model12, cfg)
    assert rep.passed
    values = [row[1] for row in rep.rows]
    assert values == sorted(values)
    assert rep.rows[-1][0] == model12.depth
    for n, s, s_prev, s_prev4, ratio4, ok in rep.rows:
        assert s >= s_prev
        if n >= 12 and s_prev4:
            assert ratio4 == s / s_prev4


def test_bochner_zero_measure_guard(model12):
    with pytest.raises(ConfigError):
        run_bochner_divergence(model12, CampaignConfig("bochner", interval=(0.5, 0.5)))


def test_continuous_campaign(cmodel9):
    cfg = CampaignConfig("continuous", samples=500, seed=5)
    rep = run_continuous_campaign(cmodel9, cfg)
    assert rep.passed
    assert len(rep.rows) == 500
    table = rep.summary["modulus_table"]
    for entry in table.values():
        assert entry["observed_sup"] <= entry["bound"] + 1e-9


def _failing_rows(report):
    """Rows with a false pass flag; a continuous row also fails on modulus_pass."""
    flags = [i for i, name in enumerate(report.columns) if name in ("pass", "modulus_pass")]
    return sum(not all(row[i] for i in flags) for row in report.rows)


def test_reports_count_their_failing_rows(model12, cmodel9, monkeypatch):
    """Each verify kind's violation count, on the report and in its summary,
    is the number of rows with a false pass flag.  A gauge that jumps to 1000
    past measure 1/4 fails the lower-bound, blowup, halfpower and continuous
    rows it reaches, the power-0.9 gauge at depth 24 fails bochner's ratio
    rows, and a scalar oracle off by 1 on two-part sets fails pairing rows."""
    jump = PsiSpec("custom-table", knots=((0, 0), (0.25, 0), (0.5, 1000), (4, 1000)))
    jump12 = dataclasses.replace(model12, psi=jump)
    oracle = campaigns.scalar_integral
    monkeypatch.setattr(campaigns, "scalar_integral",
                        lambda model, x, E: oracle(model, x, E) + (len(E.parts) == 2))
    cases = (
        (jump12, CampaignConfig("lower-bound", samples=100, dyadic_level=6, seed=3)),
        (jump12, CampaignConfig("blowup", j_min=0, j_max=9)),
        (jump12, CampaignConfig("halfpower", samples=10, j_min=1, j_max=9)),
        (dataclasses.replace(cmodel9, psi=jump), CampaignConfig("continuous", samples=200, seed=3)),
        (build_model(None, PsiSpec("power", exponent=0.9), depth=24), CampaignConfig("bochner")),
        (model12, CampaignConfig("pairing", samples=20, sets=6, seed=3)),
    )
    assert {cfg.kind for _, cfg in cases} == set(campaigns.VERIFY_CAMPAIGNS)
    for model, cfg in cases:
        report = campaigns.run(model, cfg)
        failing = _failing_rows(report)
        assert 0 < failing < len(report.rows), (cfg.kind, failing)
        assert report.violations == report.summary["violations"] == failing, cfg.kind
        assert not report.passed


def test_steep_gauge_rows_fail_on_a_zero_kernel(monkeypatch):
    """A power-3 or power-6 gauge reaches targets below 1e-12 above the
    certified floor.  With the norms forced to 0, every row must fail: no
    flag may pass a row whose target is tiny but positive."""
    model = build_model(None, PsiSpec("power", exponent=3.0), depth=24)
    monkeypatch.setattr(campaigns, "interval_bounds", lambda model, lo, hi: (0.0, 0.0))
    zero = build_continuous_model(PsiSpec("power", exponent=6.0),
                                  rule=SequenceRule("affine", a=4.0), depth=9)
    zero = dataclasses.replace(zero, coeffs=tuple(0.0 for _ in zero.coeffs))
    cases = (
        (model, CampaignConfig("blowup", j_min=4, j_max=21), 72),
        (model, CampaignConfig("halfpower", samples=50, j_min=4, j_max=21), 900),
        (model, CampaignConfig("lower-bound", dyadic_level=12, samples=20_000), 28_191),
        (zero, CampaignConfig("continuous", samples=10_000), 10_000),
    )
    for model, cfg, rows in cases:
        report = campaigns.run(model, cfg)
        assert len(report.rows) == rows, cfg.kind
        assert _failing_rows(report) == report.violations == rows, cfg.kind


def test_psi_validate_report():
    ok = run_psi_validate(
        PsiSpec("power", exponent=0.75), 2.0, SequenceRule("affine")
    )
    assert ok.passed and ok.summary["pass"]
    bad = run_psi_validate(
        PsiSpec("power", exponent=0.5), 2.0, SequenceRule("affine")
    )
    assert not bad.passed and bad.violations == 1


def test_reports_are_reproducible(model12):
    cfg = CampaignConfig("lower-bound", samples=100, dyadic_level=4, seed=77)
    a = run_lower_bound_sweep(model12, cfg)
    b = run_lower_bound_sweep(model12, cfg)
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_json_text() == b.to_json_text()
    c = run_lower_bound_sweep(model12, CampaignConfig("lower-bound", samples=100, dyadic_level=4, seed=78))
    assert a.to_csv_text() != c.to_csv_text()


#: A gauge whose growth terms overflow: its psi-validate report holds inf and nan.
#: Its first level is 40, so the depth reaches it.
_STEEP_PSI = {"psi": {"family": "power", "exponent": 0.75}, "p": 1.0,
              "rule": {"kind": "affine", "a": 40, "b": 0}, "depth": 40}


def _steep_psi_report():
    return run_psi_validate(PsiSpec.from_json(_STEEP_PSI["psi"]), 1.0,
                            SequenceRule.from_json(_STEEP_PSI["rule"]), depth=40)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_csv_renderer_matches_per_value_format(model12, cmodel9):
    small = {
        campaigns.LOWER_BOUND: CampaignConfig("lower-bound", samples=40, dyadic_level=3),
        campaigns.PAIRING: CampaignConfig("pairing", samples=4, sets=3),
        campaigns.BLOWUP: CampaignConfig("blowup", j_min=2, j_max=8),
        campaigns.HALFPOWER: CampaignConfig("halfpower", samples=4, j_min=4, j_max=9),
        campaigns.CONTINUOUS: CampaignConfig("continuous", samples=200),
        campaigns.BOCHNER: CampaignConfig("bochner"),
    }
    assert set(small) == set(campaigns.VERIFY_CAMPAIGNS)
    reports = [campaigns.run(cmodel9 if kind == campaigns.CONTINUOUS else model12, cfg)
               for kind, cfg in small.items()]
    reports.append(_steep_psi_report())
    # one column mixes None and float, another float and bool
    reports.append(campaigns.Report("synthetic", ("x", "y"),
                                    [(1.5, None), (None, 2.5), (0.25, True), (-0.0, 3)], {}, 0))
    seen = set()
    for report in reports:
        want = [",".join(report.columns)]
        want += [",".join(campaigns._fmt(v) for v in row) for row in report.rows]
        assert report.to_csv_text().split("\n") == want + [""], report.campaign
        seen.update(type(v) for row in report.rows for v in row)
        seen.update(repr(v) for row in report.rows for v in row if isinstance(v, float))
    assert {type(None), bool, int, float, "inf", "nan", "-0.0"} <= seen


def test_json_reports_are_strict(tmp_path, capsys):
    # the steep gauge's psi-validate report, as the CLI writes it (exit 1: FAIL)
    out = tmp_path / "steep.json"
    cfg = _write_cfg(tmp_path, "steep-cfg.json", _STEEP_PSI)
    assert cli.main(["psi", "validate", "--config", cfg, "--format", "json", "--out", str(out)]) == 1
    blob = json.loads(out.read_text(), parse_constant=_reject_constant)
    values = [v for row in blob["rows"] for v in row]
    assert values.count("inf") == 24 and values.count("nan") == 22
    csv_values = [v for line in _steep_psi_report().to_csv_text().splitlines() for v in line.split(",")]
    assert csv_values.count("inf") == 24 and csv_values.count("nan") == 22
    # non-finite floats in the summary too, at any depth
    report = campaigns.Report("synthetic", ("x",), [(-math.inf,)],
                              {"a": math.nan, "b": {"c": [math.inf, 1.0]}}, 0)
    blob = json.loads(report.to_json_text(), parse_constant=_reject_constant)
    assert blob["rows"] == [["-inf"]]
    assert blob["summary"] == {"a": "nan", "b": {"c": ["inf", 1.0]}}


def test_report_alone_on_stdout_without_out(tmp_path, capsys):
    # without --out the summary lines go to stderr, so stdout parses as JSON
    cfg = _write_cfg(tmp_path, "steep-cfg.json", _STEEP_PSI)
    assert cli.main(["psi", "validate", "--config", cfg, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == _steep_psi_report().to_json_text()
    assert json.loads(captured.out, parse_constant=_reject_constant)["pass"] is False
    assert captured.err.startswith("[FAIL] psi-validate: 48 rows, 1 violations\n")


def test_campaign_config_validation():
    bad = [
        {"kind": "nope"},
        {"kind": "blowup", "j_min": 9, "j_max": 4},
        {"kind": "pairing", "sets": 0},
        {"kind": "blowup", "t_grid": (1.5,)},
        {"kind": "blowup", "t_grid": (0.0, 1.0)},
        {"kind": "blowup", "t_grid": (-0.25,)},
        {"kind": "blowup", "t_grid": ()},
        # integer fields take ints only: no floats, bools or strings
        {"kind": "pairing", "sets": 1.5},
        {"kind": "lower-bound", "dyadic_level": 2.0},
        {"kind": "lower-bound", "samples": 2.5},
        {"kind": "lower-bound", "samples": True},
        {"kind": "lower-bound", "seed": 1.0},
        {"kind": "blowup", "j_min": 4.0},
        {"kind": "blowup", "j_max": "20"},
        # a negative level would sweep no dyadic cell at all
        {"kind": "lower-bound", "dyadic_level": -2},
        # halfpower draws t from [0, 1 - 2^-j_min), which is {0} at j_min 0
        {"kind": "halfpower", "j_min": 0, "j_max": 9},
    ]
    for fields in bad:
        with pytest.raises(ConfigError):
            CampaignConfig(**fields)
        with pytest.raises(ConfigError):
            build_campaign_from_config(fields)
    with pytest.raises(ConfigError):
        build_campaign_from_config({"kind": "blowup", "whatever": 1})
    with pytest.raises(ConfigError):
        build_campaign_from_config({"kind": "bochner", "interval": [0.1]})
    # the sample shapes and the modulus scales are constants, not settings
    for key in ("set_parts_max", "support_max", "delta_levels"):
        with pytest.raises(ConfigError, match="unknown campaign fields"):
            build_campaign_from_config({"kind": "pairing", key: 4})
    cfg = build_campaign_from_config({"samples": 3}, kind="pairing")
    assert cfg.kind == "pairing" and cfg.samples == 3
    with pytest.raises(ConfigError, match="halfpower needs j_min >= 1, got 0"):
        CampaignConfig("halfpower", j_min=0)
    assert CampaignConfig("blowup", j_min=0).j_min == 0


def test_model_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        build_model_from_config({"kind": "warped"})
    with pytest.raises(ConfigError):
        build_model_from_config({"kind": "pettis"})  # no psi
    for depth in (12.9, 12.0, True, "12"):
        for kind in ("pettis", "continuous"):
            with pytest.raises(ConfigError, match="depth must be an integer"):
                build_model_from_config({**_MODEL_CFG, "kind": kind, "depth": depth})
    # values of the wrong type are config errors, not ValueError/TypeError
    for model in _WRONG_TYPE_MODELS.values():
        with pytest.raises(ConfigError):
            build_model_from_config(model)
    with pytest.raises(ConfigError, match="interval bound must be a number"):
        build_campaign_from_config({"kind": "bochner", "interval": ["a", 0.5]})
    for name in _BAD_TABLES:
        with pytest.raises(ConfigError, match="archive"):
            build_model_from_config({"archive": _bad_table_archive(tmp_path, name)})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli(*args):
    """``pettis-forge *args`` run in-process through ``cli.main``, with its
    exit code and output as a ``CompletedProcess``.  The console entry point
    itself runs as a subprocess in ``test_acceptance``'s criterion 9."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_MODEL_CFG = {
    "kind": "pettis",
    "psi": {"family": "power", "exponent": 0.75},
    "K": 1.0,
    "p": 2.0,
    "rule": {"kind": "affine", "a": 1, "b": 0},
    "depth": 10,
    "carriers": {"scheme": "greedy-gap"},
}


_WRONG_TYPE_MODELS = {
    "K": {**_MODEL_CFG, "K": "abc"},
    # Python's json reads Infinity and NaN; json.dumps writes them back
    "K inf": {**_MODEL_CFG, "K": math.inf},
    "K nan": {**_MODEL_CFG, "K": math.nan},
    "exponent nan": {**_MODEL_CFG, "psi": {"family": "power", "exponent": math.nan}},
    "exponent inf": {**_MODEL_CFG, "psi": {"family": "power", "exponent": math.inf}},
    "epsilon nan": {**_MODEL_CFG, "psi": {"family": "sqrt-log", "epsilon": math.nan}},
    "p nan": {**_MODEL_CFG, "p": math.nan},
    "rule a": {**_MODEL_CFG, "rule": {"kind": "affine", "a": "x"}},
    "params": {**_MODEL_CFG, "carriers": {"scheme": "greedy-gap", "params": 5}},
    # carrier params are not a setting: only the empty {} of older archives loads
    "params object": {**_MODEL_CFG, "carriers": {"scheme": "greedy-gap", "params": {"x": 1}}},
    "exponent": {**_MODEL_CFG, "psi": {"family": "power", "exponent": "0.75"}},
    "psi": {**_MODEL_CFG, "psi": 5},
    "rule": {**_MODEL_CFG, "rule": 5},
    "carriers": {**_MODEL_CFG, "carriers": 5},
    "knot": {**_MODEL_CFG, "psi": {"family": "custom-table", "knots": [["x", 0]]}},
    "knots": {**_MODEL_CFG, "psi": {"family": "custom-table", "knots": 5}},
    "p": {**_MODEL_CFG, "p": True},
    "psi p": {**_MODEL_CFG, "psi": {"family": "power", "exponent": 0.75, "p": True}},
}

# edits to a depth-6 archive's coefficient table: a level that is not an
# integer, a coefficient that is not a number, levels that are not a list,
# a coefficient off by a relative 1e-9
_BAD_TABLES = {
    "coeffs key": lambda table: table["coeffs"].update({"x": 0.5}),
    "coeffs value": lambda table: table["coeffs"].update({"1": "abc"}),
    "levels": lambda table: table.update({"levels": 5}),
    "coeffs scaled": lambda table: table["coeffs"].update({"2": table["coeffs"]["2"] * (1 + 1e-9)}),
}


def _bad_table_archive(tmp_path, name):
    obj = archive_model(build_model_from_config({**_MODEL_CFG, "depth": 6}))
    _BAD_TABLES[name](obj["table"])
    return _write_cfg(tmp_path, f"archive-{name}.json", obj)


def test_archive_table_tolerance(tmp_path):
    """A coefficient off by a relative 1e-9 is refused.  One off by an ulp,
    as a different libm pow could write it, loads and reports the same
    bytes, since the model is rebuilt from its config."""
    campaign = {"samples": 20, "dyadic_level": 3, "seed": 3}
    scaled = _bad_table_archive(tmp_path, "coeffs scaled")
    cfg = _write_cfg(tmp_path, "scaled.json", {"model": {"archive": scaled}, "campaign": campaign})
    r = _cli("verify", "lower-bound", "--config", cfg)
    assert r.returncode == 2
    assert "coefficient at level 2 disagrees with its config" in r.stderr
    reports = []
    for name, edit in (("plain", lambda c: c), ("ulp", lambda c: math.nextafter(c, math.inf))):
        obj = archive_model(build_model_from_config({**_MODEL_CFG, "depth": 6}))
        obj["table"]["coeffs"]["2"] = edit(obj["table"]["coeffs"]["2"])
        arch = _write_cfg(tmp_path, f"archive-{name}.json", obj)
        out = tmp_path / f"report-{name}.csv"
        cfg = _write_cfg(tmp_path, f"{name}.json", {"model": {"archive": arch}, "campaign": campaign})
        r = _cli("verify", "lower-bound", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_verify_roundtrip_and_bytes(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "cfg.json",
        {"model": _MODEL_CFG, "campaign": {"samples": 50, "dyadic_level": 4, "seed": 9}},
    )
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    r1 = _cli("verify", "lower-bound", "--config", cfg, "--out", out1)
    assert r1.returncode == 0, r1.stderr
    assert "[PASS] lower-bound" in r1.stdout
    r2 = _cli("verify", "lower-bound", "--config", cfg, "--out", out2)
    assert r2.returncode == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    header = (tmp_path / "r1.csv").read_text().splitlines()[0]
    assert header == "idx,lo,hi,measure,psi,lower,upper,pass"


def test_cli_json_format(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "cfg.json",
        {"model": _MODEL_CFG, "campaign": {"samples": 5, "dyadic_level": 3, "seed": 9}},
    )
    out = str(tmp_path / "r.json")
    r = _cli("verify", "lower-bound", "--config", cfg, "--out", out, "--format", "json")
    assert r.returncode == 0
    blob = json.loads((tmp_path / "r.json").read_text())
    assert blob["campaign"] == "lower-bound"
    assert blob["pass"] is True


def test_cli_exit_codes(tmp_path):
    missing = _cli("verify", "lower-bound", "--config", str(tmp_path / "none.json"))
    assert missing.returncode == 2
    assert "config error" in missing.stderr
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert _cli("verify", "pairing", "--config", str(bad_json)).returncode == 2
    # growth failure is a config-level error for model building
    cfg = _write_cfg(
        tmp_path,
        "half.json",
        {
            "model": {**_MODEL_CFG, "psi": {"family": "power", "exponent": 0.5}},
            "campaign": {"samples": 2, "dyadic_level": 3},
        },
    )
    r = _cli("verify", "lower-bound", "--config", cfg)
    assert r.returncode == 2
    # a field that would leave the sampler an empty range
    cfg = _write_cfg(
        tmp_path, "empty.json", {"model": _MODEL_CFG, "campaign": {"samples": 2, "sets": 0}}
    )
    r = _cli("verify", "pairing", "--config", cfg)
    assert r.returncode == 2
    assert "config error: sets must be >= 1" in r.stderr
    # a blowup grid with no point, or with every point past 1, checks nothing
    for grid, message in (([], "t_grid must hold"), ([0.9999999], "every blowup grid point")):
        campaign = {"t_grid": grid, "j_min": 2, "j_max": 6}
        cfg = _write_cfg(tmp_path, "grid.json", {"model": _MODEL_CFG, "campaign": campaign})
        r = _cli("verify", "blowup", "--config", cfg)
        assert r.returncode == 2, (grid, r.stderr)
        assert f"config error: {message}" in r.stderr and "[PASS]" not in r.stderr
    # non-integer counts, levels and depths are config errors, not crashes
    # or silently truncated runs
    for name, kind, model, campaign in (
        ("sets", "pairing", _MODEL_CFG, {"samples": 2, "sets": 1.5}),
        ("dyadic_level", "lower-bound", _MODEL_CFG, {"samples": 2, "dyadic_level": 2.0}),
        ("samples", "lower-bound", _MODEL_CFG, {"samples": 2.5, "dyadic_level": 3}),
        ("depth", "lower-bound", {**_MODEL_CFG, "depth": 12.9}, {"samples": 2, "dyadic_level": 3}),
    ):
        cfg = _write_cfg(tmp_path, f"{name}.json", {"model": model, "campaign": campaign})
        r = _cli("verify", kind, "--config", cfg)
        assert r.returncode == 2, (name, r.stderr)
        assert f"{name} must be an integer" in r.stderr
        assert "Traceback" not in r.stderr
    # values of the wrong type in the model or the campaign
    cases = [(name, "lower-bound", model, {"samples": 2, "dyadic_level": 3})
             for name, model in _WRONG_TYPE_MODELS.items()]
    cases.append(("interval", "bochner", _MODEL_CFG, {"interval": ["a", 0.5]}))
    cases += [("t_grid", "blowup", _MODEL_CFG, {"t_grid": grid}) for grid in ([False], ["a"])]
    cases += [(name, "lower-bound", {"archive": _bad_table_archive(tmp_path, name)},
               {"samples": 2, "dyadic_level": 3}) for name in _BAD_TABLES]
    for name, kind, model, campaign in cases:
        cfg = _write_cfg(tmp_path, "wrong_type.json", {"model": model, "campaign": campaign})
        r = _cli("verify", kind, "--config", cfg)
        assert r.returncode == 2, (name, r.stderr)
        assert "config error" in r.stderr, name
        assert "Traceback" not in r.stderr, name
    # a deep explicit carriers block without its sets is refused at once
    carriers = {"scheme": "explicit", "depth": 40, "sets": {}}
    cfg = _write_cfg(tmp_path, "deep.json", {"model": {**_MODEL_CFG, "carriers": carriers},
                                             "campaign": {"samples": 2, "dyadic_level": 3}})
    r = _cli("verify", "lower-bound", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert "carrier sets missing 2199023255550 cells, e.g. (1, 1)" in r.stderr
    # n_max and r_max are not settings: psi validate certifies the window of
    # the model's depth, so an older config that sets either is refused
    for name, value in (("n_max", 48), ("r_max", 0.95)):
        cfg = _write_cfg(
            tmp_path, "psi_limits.json", {"psi": {"family": "power", "exponent": 0.75}, name: value}
        )
        r = _cli("psi", "validate", "--config", cfg)
        assert r.returncode == 2, (name, value, r.stderr)
        assert f"config error: {name} is not a setting" in r.stderr
        assert "Traceback" not in r.stderr
    # 2^p_n past the float range.  Growth terms: psi validate reports FAIL, and
    # building a model is a growth error.  Continuous: 2^p_depth is not a float.
    steep = {**_MODEL_CFG, "p": 1.0, "rule": {"kind": "affine", "a": 40, "b": 0}, "depth": 40}
    cont = {"kind": "continuous", "psi": {"family": "power", "exponent": 0.25},
            "rule": {"kind": "affine", "a": 1200, "b": 0}, "depth": 3}
    for args, payload, code in (
        (("psi", "validate"), {"psi": steep["psi"], "p": 1.0, "rule": steep["rule"], "depth": 40}, 1),
        (("verify", "lower-bound"), {"model": steep, "campaign": {"samples": 2}}, 2),
        (("build",), {"model": steep}, 2),
        (("verify", "continuous"), {"model": cont, "campaign": {"samples": 2}}, 2),
        (("build",), {"model": cont}, 2),
    ):
        cfg = _write_cfg(tmp_path, "overflow.json", payload)
        r = _cli(*args, "--config", cfg, "--out", str(tmp_path / "overflow.out"))
        assert r.returncode == code, (args, r.stderr)
        assert "Traceback" not in r.stderr, args
    # psi validate inputs that are not JSON objects, and a boolean norm exponent
    power = {"family": "power", "exponent": 0.75}
    for payload in ({"psi": 5}, {"psi": power, "rule": 5}, {"model": 5}, {"psi": power, "p": True},
                    {"psi": power, "depth": 12.9}, {"model": {"psi": power, "depth": "24"}}):
        cfg = _write_cfg(tmp_path, "psi_types.json", payload)
        r = _cli("psi", "validate", "--config", cfg)
        assert r.returncode == 2, (payload, r.stderr)
        assert "config error" in r.stderr, payload
        assert "Traceback" not in r.stderr, payload
    # a list rule with no level within the depth: psi validate and build refuse it alike
    beyond = {**_MODEL_CFG, "rule": {"kind": "list", "list": [5, 6, 7]}, "depth": 3}
    cfg = _write_cfg(tmp_path, "beyond.json", {"model": beyond})
    for args in (("psi", "validate"), ("build",)):
        r = _cli(*args, "--config", cfg, "--out", str(tmp_path / "beyond.out"))
        assert r.returncode == 2, (args, r.stderr)
        assert "config error: no sequence level within depth 3" in r.stderr, args
    # past 64 levels one certificate window cannot hold the schedule, and
    # psi validate refuses the depth as the coefficient schedule does
    cfg = _write_cfg(tmp_path, "deep70.json", {"model": {"psi": power, "depth": 70}})
    r = _cli("psi", "validate", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert "config error: depth 70 gives more than MAX_TERM_COUNT = 64 levels" in r.stderr
    assert "[PASS]" not in r.stderr
    # halfpower refuses a j_max below the certified floor, as blowup does
    campaign = {"samples": 20, "j_min": 4, "j_max": 30}
    cfg = _write_cfg(tmp_path, "fine.json", {"model": {**_MODEL_CFG, "depth": 12}, "campaign": campaign})
    for kind in ("blowup", "halfpower"):
        r = _cli("verify", kind, "--config", cfg)
        assert r.returncode == 2, (kind, r.stderr)
        assert "j_max 30 gives intervals below the certified floor 0.001953125" in r.stderr, kind
        assert "[FAIL]" not in r.stderr, kind
    # halfpower at j_min 0 would draw every t as 0.0
    campaign = {"samples": 5, "j_min": 0, "j_max": 9}
    cfg = _write_cfg(tmp_path, "flat.json", {"model": {**_MODEL_CFG, "depth": 12}, "campaign": campaign})
    r = _cli("verify", "halfpower", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert "config error: halfpower needs j_min >= 1, got 0" in r.stderr
    assert "[PASS]" not in r.stderr


def test_cli_psi_validate_exit_one(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "psi.json",
        {"psi": {"family": "power", "exponent": 0.5}, "p": 2.0, "rule": {"kind": "affine"}},
    )
    r = _cli("psi", "validate", "--config", cfg)
    assert r.returncode == 1
    assert r.stdout.startswith("n,p_n,term,ratio,certified\n")
    assert "[FAIL] psi-validate" in r.stderr and "[FAIL]" not in r.stdout
    ok_cfg = _write_cfg(
        tmp_path,
        "psi_ok.json",
        {"psi": {"family": "power", "exponent": 0.75}, "p": 2.0, "rule": {"kind": "affine"}},
    )
    assert _cli("psi", "validate", "--config", ok_cfg).returncode == 0


def test_cli_build_and_archive_paths(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "cfg.json",
        {"model": {**_MODEL_CFG, "depth": 6}, "campaign": {"samples": 4, "dyadic_level": 3, "seed": 1}},
    )
    arch = str(tmp_path / "arch.json")
    r = _cli("build", "--config", cfg, "--out", arch)
    assert r.returncode == 0, r.stderr
    assert "carriers ok" in r.stdout
    # verify straight from the archive
    cfg2 = _write_cfg(
        tmp_path,
        "cfg2.json",
        {"model": {"archive": arch}, "campaign": {"samples": 4, "dyadic_level": 3, "seed": 1}},
    )
    assert _cli("verify", "lower-bound", "--config", cfg2).returncode == 0
    # ship an explicit family's sets in the archive: they are verified on load
    blob = json.loads((tmp_path / "arch.json").read_text())
    assert "carriers" not in blob
    fam = allocate_carriers(6)
    blob["carriers"] = CarrierFamily.from_sets(
        6, {cell: fam.carrier(*cell) for cell in fam.cells()}
    ).to_json()
    (tmp_path / "arch.json").write_text(json.dumps(blob))
    assert _cli("verify", "lower-bound", "--config", cfg2).returncode == 0
    # corrupt one carrier: expect a disjointness complaint and exit 2
    sets = blob["carriers"]["sets"]
    sets["1,1"] = sets["1,1"] + sets["2,1"]
    (tmp_path / "arch.json").write_text(json.dumps(blob))
    r = _cli("verify", "lower-bound", "--config", cfg2)
    assert r.returncode == 2
    assert "disjointness violated" in r.stderr


def test_cli_rejects_archive_keys_outside_the_family(tmp_path, capsys):
    """An explicit archive that holds every cell of its depth-3 family plus a
    set under the key "4,1", past the depth, exits 2 with a config error
    naming the key; the stray set would otherwise pass the disjointness
    sweep and be found by ``locate``, and the pairing campaign would pass."""
    cfg = _write_cfg(tmp_path, "build.json", {"model": {**_MODEL_CFG, "depth": 3}})
    arch = tmp_path / "arch.json"
    assert cli.main(["build", "--config", cfg, "--out", str(arch)]) == 0
    fam = allocate_carriers(3)
    blob = json.loads(arch.read_text())
    blob["carriers"] = CarrierFamily.from_sets(
        3, {cell: fam.carrier(*cell) for cell in fam.cells()}
    ).to_json()
    blob["carriers"]["sets"]["4,1"] = [[0.0, 0.01]]
    arch.write_text(json.dumps(blob))
    verify = _write_cfg(tmp_path, "verify.json", {"model": {"archive": str(arch)},
                                                  "campaign": {"samples": 4, "sets": 2}})
    r = _cli("verify", "pairing", "--config", verify)
    assert r.returncode == 2
    assert "config error: carrier set key (4, 1) names no cell of a depth-3 family" in r.stderr


def test_cli_refuses_an_archive_whose_config_names_an_archive(tmp_path):
    """write_archive never writes an "archive" key into a config; one that
    does (here naming the archive itself) is a config error naming the path,
    not a recursion."""
    arch = tmp_path / "self.json"
    arch.write_text(json.dumps({"kind": "pettis", "config": {"archive": str(arch)}}))
    cfg = _write_cfg(tmp_path, "verify.json", {"model": {"archive": str(arch)},
                                               "campaign": {"samples": 2, "dyadic_level": 3}})
    r = _cli("verify", "lower-bound", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert f"config error: archive {arch} config names another archive" in r.stderr
    assert "Traceback" not in r.stderr


def test_build_sweeps_carriers_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(family):
        calls.append(family.scheme)
        return verify_disjointness(family)

    # config holds the one call site, for built-in and explicit families alike
    monkeypatch.setattr(config_module, "verify_disjointness", counting)
    fam = allocate_carriers(6)
    explicit = CarrierFamily.from_sets(6, {cell: fam.carrier(*cell) for cell in fam.cells()})
    for carriers, mode in (({"scheme": "greedy-gap"}, "structural"),
                           (explicit.to_json(), "full-sweep")):
        calls.clear()
        cfg = _write_cfg(tmp_path, "build.json", {"model": {**_MODEL_CFG, "depth": 6,
                                                            "carriers": carriers}})
        assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "arch.json")]) == 0
        assert len(calls) == 1, (mode, calls)
        assert f"carriers ok: depth 6, scheme {calls[0]}, mode {mode}" in capsys.readouterr().out


def test_depth_20_archive_stores_the_generator(tmp_path):
    model = {**_MODEL_CFG, "depth": 20}
    cfg = _write_cfg(tmp_path, "cfg.json", {"model": model})
    arch = tmp_path / "arch.json"
    r = _cli("build", "--config", cfg, "--out", str(arch))
    assert r.returncode == 0, r.stderr
    assert arch.stat().st_size <= 1 << 20
    assert '"sets' not in arch.read_text()  # neither "sets" nor "sets_elided"
    assert load_archive(arch) == build_model_from_config(model)


@pytest.mark.parametrize("scheme,depth", [("greedy-gap", 1), ("greedy-gap", 8),
                                          ("greedy-gap", 11), ("stratified", 8)])
def test_builtin_archive_reloads_the_generator(tmp_path, scheme, depth):
    model = build_model_from_config({**_MODEL_CFG, "depth": depth, "carriers": {"scheme": scheme}})
    arch = tmp_path / "arch.json"
    write_archive(model, arch)
    assert '"sets' not in arch.read_text()
    back = load_archive(arch)
    assert back == model
    assert back.carriers.scheme == scheme
    assert verify_disjointness(back.carriers).mode == "structural"


def test_older_archives_still_load(tmp_path):
    """Archives written before carriers were stored only as generators."""
    model = build_model_from_config({**_MODEL_CFG, "depth": 6})
    old = archive_model(model)
    old["config"]["carriers"]["params"] = {}
    # a large built-in family: an elided carriers block, never read
    old["carriers"] = {"depth": 6, "params": {}, "scheme": "greedy-gap", "sets_elided": True}
    assert load_archive(_write_cfg(tmp_path, "elided.json", old)) == model
    # a small one: its sets next to the scheme tag, loaded as an explicit family
    fam = model.carriers
    old["carriers"] = {"depth": 6, "params": {}, "scheme": "greedy-gap",
                       "sets": {f"{n},{k}": fam.carrier(n, k).to_pairs() for n, k in fam.cells()}}
    back = load_archive(_write_cfg(tmp_path, "sets.json", old))
    assert back.carriers.scheme == "explicit"
    assert all(back.carriers.carrier(*cell) == fam.carrier(*cell) for cell in fam.cells())


def test_archive_holds_p_once(tmp_path):
    model = build_model_from_config({**_MODEL_CFG, "p": 3.0, "depth": 8})
    arch = tmp_path / "arch.json"
    write_archive(model, arch)
    config = json.loads(arch.read_text())["config"]
    assert config["p"] == 3.0 and "p" not in config["psi"]
    assert load_archive(arch) == model


#: A depth-3, p = 3 archive as written when the gauge still carried its own p.
_GAUGE_P_ARCHIVE = {
    "config": {"K": 1.0, "carriers": {"scheme": "greedy-gap"}, "depth": 3, "kind": "pettis",
               "p": 3.0, "psi": {"exponent": 0.75, "family": "power", "p": 2.0},
               "rule": {"a": 1.0, "b": 0, "kind": "affine"}},
    "kind": "pettis",
    "table": {"K": 1.0, "coeffs": {"1": 5.656854249492381, "2": 3.363585661014858, "3": 2.0},
              "depth": 3, "levels": [1, 2, 3], "n0": 1, "p": 3.0, "ratio": 0.7491535384383411},
}


def test_gauge_p_archive_reloads_with_the_model_p(tmp_path):
    back = load_archive(_write_cfg(tmp_path, "gauge-p.json", _GAUGE_P_ARCHIVE))
    assert back.p == 3.0 and back.table.p == 3.0
    assert back == build_model_from_config({**_MODEL_CFG, "p": 3.0, "depth": 3})


def test_gauge_p_is_read_only_without_a_model_p():
    gauge_only = {key: v for key, v in _MODEL_CFG.items() if key != "p"}
    gauge_only["psi"] = {"family": "power", "exponent": 0.75, "p": 3}
    assert build_model_from_config(gauge_only).p == 3.0
    assert build_model_from_config({**gauge_only, "p": 2.0}).p == 2.0
    # a gauge p is still validated, with or without a model p
    for model in (gauge_only, {**gauge_only, "p": 2.0}):
        with pytest.raises(ConfigError, match="norm exponent"):
            build_model_from_config({**model, "psi": {**model["psi"], "p": True}})


def test_psi_validate_reads_the_model_p(tmp_path, capsys):
    # the steep gauge nested under "model": psi validate certifies the p the
    # model is built with, so it fails where build fails
    steep = {**_MODEL_CFG, **_STEEP_PSI, "depth": 40}
    cfg = _write_cfg(tmp_path, "steep-model.json", {"model": steep})
    assert cli.main(["psi", "validate", "--config", cfg]) == 1
    assert "\n  p: 1.0\n" in capsys.readouterr().err
    assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "steep-archive.json")]) == 2
    assert "failed growth validation for p=1.0" in capsys.readouterr().err
    # a top-level p overrides the model's
    cfg = _write_cfg(tmp_path, "steep-p2.json", {"model": steep, "p": 2.0})
    assert cli.main(["psi", "validate", "--config", cfg]) == 0
    assert "\n  p: 2.0\n" in capsys.readouterr().err


def test_psi_validate_runs_the_continuous_certificate(tmp_path, capsys):
    # a continuous model is built on the summability certificate (the p = inf
    # series), so psi validate on its config agrees with build
    ref9 = {"kind": "continuous", "psi": {"family": "power", "exponent": 0.25},
            "K": 1.0, "rule": {"kind": "affine", "a": 4, "b": 0}, "depth": 9}
    cfg = _write_cfg(tmp_path, "ref9.json", {"model": ref9})
    assert cli.main(["psi", "validate", "--config", cfg]) == 0
    assert "\n  p: inf\n" in capsys.readouterr().err
    assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "ref9-archive.json")]) == 0
    capsys.readouterr()
    # a gauge too flat to sum along the rule fails both
    flat = {**ref9, "psi": {"family": "power", "exponent": 0.05}, "rule": {"kind": "affine"}}
    cfg = _write_cfg(tmp_path, "flat.json", {"model": flat})
    assert cli.main(["psi", "validate", "--config", cfg]) == 1
    assert "[FAIL] psi-validate" in capsys.readouterr().err
    assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "flat-archive.json")]) == 2
    assert "not certified summable" in capsys.readouterr().err
    # the limits of a continuous model are in the certificate both run: a
    # depth build refuses, psi validate refuses with the same message
    for a, depth, message in ((4, 1, "continuous model needs depth >= 2, got 1"),
                              (40, 30, "continuous model needs p_depth < 1024, got 1200"),
                              (4, 100, "depth 100 gives more than MAX_TERM_COUNT = 64 levels")):
        limit = {**ref9, "rule": {"kind": "affine", "a": a, "b": 0}, "depth": depth}
        cfg = _write_cfg(tmp_path, "limit.json", {"model": limit})
        for args in (["psi", "validate"], ["build", "--out", str(tmp_path / "limit-archive.json")]):
            assert cli.main([*args, "--config", cfg]) == 2, (a, depth, args)
            err = capsys.readouterr().err
            assert f"config error: {message}" in err and "[PASS]" not in err, (a, depth, args)
    # 64 levels, 2..65, is the deepest model one window holds
    cfg = _write_cfg(tmp_path, "d65.json", {"model": {**ref9, "depth": 65}})
    assert cli.main(["psi", "validate", "--config", cfg]) == 0
    assert cli.main(["build", "--config", cfg, "--out", str(tmp_path / "d65-archive.json")]) == 0
    capsys.readouterr()
    # a model kind that build rejects is a config error here too
    cfg = _write_cfg(tmp_path, "odd.json", {"model": {**ref9, "kind": "odd"}})
    assert cli.main(["psi", "validate", "--config", cfg]) == 2
    assert "unknown model kind 'odd'" in capsys.readouterr().err


_REF9 = {"kind": "continuous", "psi": {"family": "power", "exponent": 0.25},
         "K": 1.0, "rule": {"kind": "affine", "a": 4, "b": 0}, "depth": 9}


@pytest.mark.parametrize(
    "model, kind, message",
    [
        # 2K = inf: an archive would hold bare Infinity and every row lower = inf
        ({"K": 1e308}, "lower-bound", "coefficient at level 1 is inf, past the float range"),
        # c finite, c**2 not: the pettis geometry's c**p would overflow
        ({"K": 1e300}, "lower-bound",
         "coefficient at level 1 is 5.656854249492381e+300, whose power p = 2.0 is past the float range"),
        # a * 65 = inf, whose ceil is no integer
        ({"rule": {"kind": "affine", "a": 1e307, "b": 0}}, "lower-bound",
         "affine slope 1e+307 puts p_65 past the float range"),
        # 2K = inf: every pair's lhs would be inf
        ({**_REF9, "K": 1e308}, "continuous", "coefficient at level 2 is inf, past the float range"),
        # c_10 * 2^p_10 = 1e68 * 2^801 overflows: an inf modulus bound holds for every pair
        ({**_REF9, "K": 1e68, "rule": {"kind": "affine", "a": 100, "b": 0}, "depth": 10}, "continuous",
         "Lipschitz constant is inf, past the float range"),
    ],
    ids=["K-1e308", "K-1e300", "slope-1e307", "continuous-K-1e308", "continuous-lipschitz"],
)
def test_model_numbers_past_the_float_range_are_config_errors(tmp_path, capsys, model, kind, message):
    """A model whose coefficients, their p-th powers or its levels leave the
    float range is refused by build and verify alike: exit 2, no PASS."""
    cfg = _write_cfg(tmp_path, "huge.json", {"model": {**_MODEL_CFG, "depth": 24, **model},
                                             "campaign": {"samples": 5, "dyadic_level": 4}})
    archive = tmp_path / "huge-archive.json"
    for args in (["build", "--out", str(archive)], ["verify", kind, "--out", str(tmp_path / "r.csv")]):
        assert cli.main([*args, "--config", cfg]) == 2, args
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "[PASS]" not in err, args
    assert not archive.exists()


def test_gauge_past_the_float_range_fails_its_certificate(tmp_path, capsys):
    """psi(4) = 4^600 overflows: the term is non-finite, so psi validate
    reports FAIL and build and verify refuse the growth certificate."""
    model = {**_MODEL_CFG, "psi": {"family": "power", "exponent": 600}}
    cfg = _write_cfg(tmp_path, "exp600.json", {"model": model, "campaign": {"samples": 5, "dyadic_level": 4}})
    assert cli.main(["psi", "validate", "--config", cfg, "--out", str(tmp_path / "psi.csv")]) == 1
    assert "[FAIL] psi-validate" in capsys.readouterr().out
    report = campaigns.validate_growth(PsiSpec("power", exponent=600), 2.0, SequenceRule("affine"), 10)
    assert not report.passed and report.terms[0] == math.inf
    for args in (["build", "--out", str(tmp_path / "a.json")],
                 ["verify", "lower-bound", "--out", str(tmp_path / "r.csv")]):
        assert cli.main([*args, "--config", cfg]) == 2, args
        err = capsys.readouterr().err
        assert "failed growth validation for p=2.0" in err and "[PASS]" not in err, args


def _kinked_knots():
    """A custom table that follows s^0.75 for s >= 2^-36 and s^0.55 below,
    with knots at every power of two from 2^-60 to 4.  At p = 2, a = 1 its
    term ratio is 2^-0.25 = 0.8409 up to term 39, then 2^-0.05 = 0.966, over
    the 0.95 cap: a 32-term window misses the kink, a 48-term one sees it."""
    knots = [[0.0, 0.0]]
    for e in range(-60, 3):
        s = math.ldexp(1.0, e)
        knots.append([s, s**0.75 if e >= -36 else 2.0**-27 * math.ldexp(s, 36) ** 0.55])
    return knots


_POWER34 = {**_MODEL_CFG, "depth": 24}
_CERTIFIED_MODELS = {
    "power-d8": {**_POWER34, "depth": 8},
    "power-d24": _POWER34,
    "power-d40": {**_POWER34, "depth": 40},
    "sqrt-log-p3-d24": {**_POWER34, "psi": {"family": "sqrt-log", "epsilon": 0.5}, "p": 3.0,
                        "rule": {"kind": "affine", "a": 4, "b": 0}},
    "kinked-d8": {**_POWER34, "psi": {"family": "custom-table", "knots": _kinked_knots()},
                  "depth": 8},
    "continuous-ref9": {"kind": "continuous", "psi": {"family": "power", "exponent": 0.25},
                        "K": 1.0, "rule": {"kind": "affine", "a": 4, "b": 0}, "depth": 9},
    "continuous-sqrt-log-d14": {"kind": "continuous", "psi": {"family": "sqrt-log", "epsilon": 0.5},
                                "K": 2.0, "rule": {"kind": "affine", "a": 3, "b": 0}, "depth": 14},
}


@pytest.mark.parametrize("case", sorted(_CERTIFIED_MODELS))
def test_psi_validate_certifies_what_build_builds_on(tmp_path, case):
    """On a model's config, psi validate reports the certificate build
    stores on the model: the same pass flag, n0 and ratio.  The kinked
    table, whose kink a 32-term window misses, fails both at depth 8."""
    model = _CERTIFIED_MODELS[case]
    cfg = _write_cfg(tmp_path, "model.json", {"model": model})
    r = _cli("psi", "validate", "--config", cfg, "--format", "json")
    summary = json.loads(r.stdout)["summary"]
    try:
        built = build_model_from_config(model)
    except GrowthConditionError:
        built = None
    assert (built is None) == (case == "kinked-d8")
    if built is None:
        assert (r.returncode, summary["pass"]) == (1, False)
        assert (summary["n0"], summary["ratio"]) == (None, None)
    else:
        cert = (built.table if isinstance(built, PettisModel) else built).certificate
        assert (r.returncode, summary["pass"]) == (0, True)
        assert (summary["n0"], summary["ratio"]) == (cert.n0, cert.ratio)
    b = _cli("build", "--config", cfg, "--out", str(tmp_path / "archive.json"))
    assert b.returncode == (2 if built is None else 0), b.stderr


def test_continuous_archive_is_its_config(tmp_path, cmodel9):
    arch = tmp_path / "arch.json"
    write_archive(cmodel9, arch)
    assert set(json.loads(arch.read_text())) == {"kind", "config"}
    assert load_archive(arch) == cmodel9


def test_cli_continuous_campaign(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "cont.json",
        {
            "model": {
                "kind": "continuous",
                "psi": {"family": "power", "exponent": 0.25},
                "rule": {"kind": "affine", "a": 4, "b": 0},
                "depth": 6,
            },
            "campaign": {"samples": 40, "seed": 3},
        },
    )
    r = _cli("verify", "continuous", "--config", cfg)
    assert r.returncode == 0, r.stderr
    # kind mismatch: a pettis campaign on a continuous model
    r = _cli("verify", "lower-bound", "--config", cfg)
    assert r.returncode == 2
    assert "config error: lower-bound campaign needs a pettis model" in r.stderr
    # and the other way round, through the same table
    with pytest.raises(ConfigError, match="continuous campaign needs a continuous model"):
        campaigns.run(_small_model(6), CampaignConfig("continuous", samples=2))
    with pytest.raises(ConfigError, match="not a verify campaign"):
        campaigns.run(_small_model(6), CampaignConfig("psi-validate"))


def test_cli_seed_and_samples_overrides(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "cfg.json",
        {"model": _MODEL_CFG, "campaign": {"samples": 10, "dyadic_level": 3, "seed": 9}},
    )
    o1, o2, o3 = (str(tmp_path / f"r{i}.csv") for i in (1, 2, 3))
    _cli("verify", "lower-bound", "--config", cfg, "--out", o1, "--seed", "123", "--samples", "7")
    _cli("verify", "lower-bound", "--config", cfg, "--out", o2, "--seed", "123", "--samples", "7")
    _cli("verify", "lower-bound", "--config", cfg, "--out", o3, "--seed", "124", "--samples", "7")
    b1, b2, b3 = ((tmp_path / f"r{i}.csv").read_bytes() for i in (1, 2, 3))
    assert b1 == b2 and b1 != b3
    assert len(b1.decode().splitlines()) == 1 + (2**4 - 1) + 7


def test_cli_subcommands_take_only_the_flags_they_read(tmp_path):
    """``build`` takes no campaign override and ``psi validate`` only
    ``--format``; argparse refuses the others with a usage error."""
    cfg = _write_cfg(tmp_path, "build.json", {"model": {**_MODEL_CFG, "depth": 6}})
    out = str(tmp_path / "a.json")
    refused = (
        ("build", "--seed", "3"),
        ("build", "--samples", "9"),
        ("build", "--format", "json"),
        ("psi", "validate", "--seed", "3"),
        ("psi", "validate", "--samples", "9"),
    )
    for args in refused:
        r = _cli(*args, "--config", cfg, "--out", out)
        assert r.returncode == 2, args
        assert "unrecognized arguments" in r.stderr, args
    assert _cli("build", "--config", cfg, "--out", out).returncode == 0
    assert _cli("psi", "validate", "--config", cfg, "--format", "json", "--out", out).returncode == 0
