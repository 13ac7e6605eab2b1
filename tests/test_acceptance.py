"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  The reference models are the power-3/4 gauge on the l2
backend at depth 24 (step-carrier) and the quarter-power gauge with levels
4n at depth 9 (continuous).
"""

import math
import random
import subprocess
import sys
import time

import pytest

from pettis_forge import (
    BlockLayout,
    BlockVector,
    Functional,
    Interval,
    PsiSpec,
    SequenceRule,
    allocate_carriers,
    dyadic_interval,
    find_inner_dyadic,
    pettis_integral,
    run_blowup,
    run_bochner_divergence,
    run_continuous_campaign,
    run_halfpower_statistic,
    run_lower_bound_sweep,
    run_pairing_check,
    validate_growth,
    verify_disjointness,
)
from pettis_forge.campaigns import CampaignConfig
from pettis_forge.intervals import DyadicIndex


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_interval_lower_bound(model24):
    """All dyadic intervals to level 12 plus 10^4 seeded random intervals
    with measure >= 4 * 2^-23 satisfy lower >= measure^(3/4) - 1e-12."""
    started = time.time()
    cfg = CampaignConfig("lower-bound", samples=10_000, dyadic_level=12, seed=20260810)
    rep = run_lower_bound_sweep(model24, cfg)
    elapsed = time.time() - started
    floor_ok = rep.summary["measure_floor"] == math.ldexp(4.0, -23)
    ok = rep.passed and rep.violations == 0 and floor_ok and elapsed < 60.0
    _report(
        1,
        ok,
        f"{len(rep.rows)} intervals ({rep.summary['dyadic_rows']} dyadic), "
        f"0 expected violations, got {rep.violations}, {elapsed:.1f}s",
    )


def test_criterion_2_pairing_identity(model24):
    """100 functionals x 50 interval sets; |pairing gap| <= 1e-9 * (1 + q-norm)."""
    cfg = CampaignConfig("pairing", samples=100, sets=50, seed=20260810)
    rep = run_pairing_check(model24, cfg)
    ok = rep.passed and len(rep.rows) == 5000
    worst = max(row[4] for row in rep.rows)
    _report(2, ok, f"5000 pairs, worst abs err {worst:.3e}, violations {rep.violations}")


def test_criterion_3_full_space_anchor(model24):
    """Lower enclosure over [0,1) matches the geometric closed form to 4
    significant digits."""
    enc = pettis_integral(model24, Interval(0.0, 1.0))
    oracle = math.sqrt(2.0**6.5 * math.fsum(2.0 ** (-n / 2) for n in range(1, 25)))
    rel = abs(enc.lower - oracle) / oracle
    ok = rel < 5e-4 and abs(oracle - 14.78) < 0.005
    _report(3, ok, f"lower {enc.lower:.6f} vs oracle {oracle:.6f} (rel {rel:.2e})")


def test_criterion_4_blowup_grid(model24):
    """(1/h) * lower >= h^(-1/4) = 2^(j/4) for t in {0, 0.3, 1/3, 0.9}, j in [4, 20]."""
    cfg = CampaignConfig("blowup", t_grid=(0.0, 0.3, 1.0 / 3.0, 0.9), j_min=4, j_max=20)
    rep = run_blowup(model24, cfg)
    floors_ok = all(value >= 2.0 ** (j / 4) - 1e-9 for (_, j, _, value, _, _) in rep.rows)
    j20 = [value for (_, j, _, value, _, _) in rep.rows if j == 20]
    ok = rep.passed and floors_ok and len(rep.rows) == 4 * 17 and all(v > 32.0 for v in j20)
    _report(4, ok, f"68 grid points, all >= 2^(j/4); j=20 values min {min(j20):.1f} > 32")


def test_criterion_5_halfpower_regime(model24):
    """Hard floor only; the limit statement is flagged as not decidable."""
    cfg = CampaignConfig("halfpower", samples=200, j_min=8, j_max=20, seed=20260810)
    rep = run_halfpower_statistic(model24, cfg)
    trend = rep.summary["median_trend"]
    ok = (
        rep.passed
        and "not decidable" in rep.summary["note"]
        and set(trend) == {str(j) for j in range(8, 21)}
    )
    _report(
        5,
        ok,
        f"floor violations {rep.violations}; trend medians j=8: {trend['8']:.2f}, "
        f"j=20: {trend['20']:.2f}; limit flagged informative",
    )


def test_criterion_6_bochner_divergence(model24):
    """On [0.25, 0.5): S_(N+4) >= 1.5 * S_N for N in [8, 20], S monotone."""
    cfg = CampaignConfig("bochner", interval=(0.25, 0.5))
    rep = run_bochner_divergence(model24, cfg)
    values = {row[0]: row[1] for row in rep.rows}
    window_ok = all(values[n + 4] >= 1.5 * values[n] for n in range(8, 21))
    mono_ok = all(values[n] >= values[n - 1] for n in range(2, 25))
    ok = rep.passed and window_ok and mono_ok
    _report(6, ok, f"S_24 = {values[24]:.1f}; ratio window and monotonicity hold")


def test_criterion_7_continuous_separation(cmodel9):
    """10^4 seeded pairs with |s-t| >= 2^-p_8: separation and modulus hold."""
    cfg = CampaignConfig("continuous", samples=10_000, seed=20260810)
    rep = run_continuous_campaign(cmodel9, cfg)
    floor_ok = rep.summary["distance_floor"] == math.ldexp(1.0, -32)
    ok = rep.passed and rep.violations == 0 and floor_ok and len(rep.rows) == 10_000
    _report(
        7,
        ok,
        f"10^4 pairs, violations {rep.violations}, "
        f"rejected-too-close {rep.summary['rejected_too_close']}",
    )


def test_criterion_8_growth_calibration():
    """power(0.75) certifies ratio 2^(-1/4) +- 1e-12; power(0.5) fails for
    every affine slope up to 8."""
    good = validate_growth(PsiSpec("power", exponent=0.75), 2.0, SequenceRule("affine"))
    ratio_ok = good.passed and abs(good.ratio - 2.0**-0.25) <= 1e-12
    fails = []
    for a in (1, 2, 3, 4, 5, 6, 7, 8, 1.5, 2.5, 7.5):
        for b in (0, 1, 3):
            rep = validate_growth(PsiSpec("power", exponent=0.5), 2.0, SequenceRule("affine", a=a, b=b))
            fails.append(not rep.passed)
    ok = ratio_ok and all(fails)
    _report(
        8,
        ok,
        f"certified ratio {good.ratio!r} (target 2^-0.25), "
        f"{len(fails)} half-power affine rules all rejected",
    )


def test_criterion_9_structural_suites(model24, tmp_path):
    """Carrier disjointness at depth 24; inner-cell finder on 10^5 intervals;
    norm/pairing inequalities on 10^4 vectors for p in {1, 2, 4, inf};
    byte-identical reports for equal seeds."""
    checks: list[str] = []

    dis = verify_disjointness(model24.carriers)
    assert dis.passed and not dis.violations
    checks.append(f"disjointness depth 24 ({dis.mode})")

    rng = random.Random(20260810)
    tested = 0
    while tested < 100_000:
        a, b = rng.random(), rng.random()
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        iv = Interval(lo, hi)
        d = find_inner_dyadic(iv)
        cell = dyadic_interval(DyadicIndex(d.level, d.index)) if d.level <= 40 else None
        assert cell is not None
        assert cell.lo >= iv.lo and cell.hi <= iv.hi, (lo, hi)
        assert 4.0 * cell.measure >= iv.measure, (lo, hi)
        tested += 1
    checks.append("inner-dyadic containment and factor-4 on 10^5 intervals")

    for p in (1.0, 2.0, 4.0, math.inf):
        layout = BlockLayout.power_of_two(p, 10)
        prng = random.Random(int(7919 * (0 if math.isinf(p) else p)) + 13)
        for _ in range(2500):
            def rand_coeffs():
                out = {}
                for _ in range(prng.randint(1, 8)):
                    n = prng.randint(1, 10)
                    out[(n, prng.randint(1, 1 << n))] = prng.uniform(-5, 5)
                return out

            u = BlockVector(layout, rand_coeffs())
            v = BlockVector(layout, rand_coeffs())
            x = Functional(layout, rand_coeffs())
            assert u.add(v).norm() <= u.norm() + v.norm() + 1e-9
            assert abs(x.apply(u)) <= x.dual_norm() * u.norm() + 1e-9
    checks.append("triangle and pairing inequalities on 10^4 vectors, p in {1,2,4,inf}")

    small = allocate_carriers(8)
    from pettis_forge import build_model

    model8 = build_model(small, PsiSpec("power", exponent=0.75), depth=8)
    cfg = CampaignConfig("lower-bound", samples=200, dyadic_level=5, seed=424242)
    text_a = run_lower_bound_sweep(model8, cfg).render("csv")
    text_b = run_lower_bound_sweep(model8, cfg).render("csv")
    assert text_a == text_b
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"model": {"kind": "pettis", "psi": {"family": "power", "exponent": 0.75},'
        ' "depth": 8, "p": 2.0}, "campaign": {"samples": 50, "dyadic_level": 4, "seed": 5}}'
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "pettis_forge.cli", "verify", "lower-bound",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    checks.append("byte-identical reports, in-process and CLI")

    _report(9, True, "; ".join(checks))
