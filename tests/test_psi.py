"""Gauge families, growth certificates, coefficient schedules, tail bounds."""

import itertools
import math
import random

import pytest

from pettis_forge import (
    PsiSpec,
    SequenceRule,
    build_continuous_model,
    coefficients,
    eval_psi_total,
    tail_bound,
    validate_growth,
    validate_summable,
)
from pettis_forge.errors import ConfigError, GrowthConditionError, PsiDomainError
from pettis_forge import psi as psi_module
from pettis_forge.psi import SQRT_LOG_THRESHOLD, SQRT_LOGLOG_THRESHOLD, growth_term, summability_term


def test_power_eval_examples():
    spec = PsiSpec("power", exponent=0.75)
    assert abs(eval_psi_total(spec, 0.25) - 0.25**0.75) == 0.0
    assert abs(eval_psi_total(spec, 0.25) - 0.3535533906) < 1e-9
    assert eval_psi_total(spec, 0.0) == 0.0
    assert eval_psi_total(spec, 1.0) == 1.0


def test_sqrt_log_eval_example():
    spec = PsiSpec("sqrt-log", epsilon=1.0)
    s = 2.0**-8
    want = math.sqrt(s) * (1.0 / (8.0 * math.log(2.0))) ** 2
    assert abs(eval_psi_total(spec, s) - want) < 1e-15
    assert abs(want - 0.0625 * 0.0325214) < 1e-6


def test_log_family_domains():
    spec = PsiSpec("sqrt-log", epsilon=0.5)
    with pytest.raises(PsiDomainError):
        eval_psi_total(spec, -0.1)
    ll = PsiSpec("sqrt-loglog", epsilon=0.5)
    assert eval_psi_total(ll, SQRT_LOGLOG_THRESHOLD * 0.5) > 0.0


def test_total_extension_is_continuous_and_monotone():
    for spec, th in (
        (PsiSpec("sqrt-log", epsilon=1.0), SQRT_LOG_THRESHOLD),
        (PsiSpec("sqrt-loglog", epsilon=0.25), SQRT_LOGLOG_THRESHOLD),
    ):
        below = eval_psi_total(spec, th * (1 - 1e-12))
        at = eval_psi_total(spec, th)
        assert abs(below - at) < 1e-9
        assert eval_psi_total(spec, 4.0) > eval_psi_total(spec, 1.0) > at


@pytest.mark.parametrize(
    "spec,domain_hi",
    [
        (PsiSpec("power", exponent=0.75), 4.0),
        (PsiSpec("power", exponent=2.0), 4.0),
        (PsiSpec("sqrt-log", epsilon=1.0), SQRT_LOG_THRESHOLD),
        (PsiSpec("sqrt-loglog", epsilon=0.5), SQRT_LOGLOG_THRESHOLD),
    ],
)
def test_monotone_on_random_pairs(spec, domain_hi):
    rng = random.Random(hash(spec.family) & 0xFFFF)
    for _ in range(10_000):
        s1 = rng.random() * domain_hi
        s2 = rng.random() * domain_hi
        if s1 > s2:
            s1, s2 = s2, s1
        assert eval_psi_total(spec, s1) <= eval_psi_total(spec, s2) * (1 + 1e-15)


def test_total_extension_monotone_across_threshold():
    spec = PsiSpec("sqrt-log", epsilon=2.0)
    rng = random.Random(3)
    for _ in range(10_000):
        s1, s2 = sorted((rng.random() * 4.0, rng.random() * 4.0))
        assert eval_psi_total(spec, s1) <= eval_psi_total(spec, s2) * (1 + 1e-15)


def test_custom_table_family():
    spec = PsiSpec("custom-table", knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
    assert eval_psi_total(spec, 0.0) == 0.0
    assert eval_psi_total(spec, 0.25) == 0.125
    assert eval_psi_total(spec, 2.0) == 1.0  # constant past the last knot
    with pytest.raises(ConfigError):
        PsiSpec("custom-table", knots=((0.0, 0.0), (0.5, 0.25), (0.4, 1.0)))
    with pytest.raises(ConfigError):
        PsiSpec("custom-table", knots=((0.1, 0.0),))


def test_sequence_rules():
    unit = SequenceRule("affine")
    assert [unit.term(n) for n in range(4)] == [0, 1, 2, 3]
    shifted = SequenceRule("affine", a=4.0)
    assert [shifted.term(n) for n in range(4)] == [0, 4, 8, 12]
    lst = SequenceRule("list", values=(2, 5, 9))
    assert [lst.term(n) for n in range(4)] == [0, 2, 5, 9]
    assert lst.levels_within(6) == (2, 5)
    with pytest.raises(ConfigError):
        lst.term(4)
    with pytest.raises(ConfigError):
        SequenceRule("list", values=(3, 3))
    with pytest.raises(ConfigError):
        SequenceRule("affine", a=0.5)


def test_growth_pass_power_three_quarters():
    report = validate_growth(PsiSpec("power", exponent=0.75), 2.0, SequenceRule("affine"))
    assert report.passed
    assert abs(report.ratio - 2.0**-0.25) < 1e-12
    # closed form: term_n = 2^(9/4) * 2^(-n/4)
    for i, term in enumerate(report.terms[:10], start=1):
        assert abs(term - 2.0 ** (9 / 4) * 2.0 ** (-i / 4)) < 1e-12 * term


def test_growth_fail_power_half():
    report = validate_growth(PsiSpec("power", exponent=0.5), 2.0, SequenceRule("affine"))
    assert not report.passed
    for term in report.terms:
        assert abs(term - 2.0**1.5) < 1e-12  # constant terms, ratio 1


def test_growth_sup_norm_exponent():
    spec = PsiSpec("power", exponent=0.25)
    rule = SequenceRule("affine", a=4.0)
    report = validate_growth(spec, math.inf, rule)
    assert report.passed
    # factor (2^p_n)^(1/inf) is 1: term_n is the bare gauge value
    assert abs(report.terms[0] - eval_psi_total(spec, 4.0)) < 1e-15
    assert abs(report.terms[0] - 2.0**0.5) < 1e-12


def test_coefficient_examples():
    table = coefficients(PsiSpec("power", exponent=0.75), K=1.0, p=2.0, depth=24)
    assert abs(table.coefficient(1) - 2.0**2.5) < 1e-12
    assert abs(table.coefficient(2) - 2.0**1.75) < 1e-12
    assert table.coefficient(0) == 0.0
    assert table.levels == tuple(range(1, 25))
    assert {m for m in range(0, 30) if table.coefficient(m) != 0.0} == set(range(1, 25))


def test_coefficient_scaling_in_K():
    t1 = coefficients(PsiSpec("power", exponent=0.75), K=1.0, p=2.0, depth=8)
    t2 = coefficients(PsiSpec("power", exponent=0.75), K=2.5, p=2.0, depth=8)
    for m in range(1, 9):
        assert abs(t2.coefficient(m) - 2.5 * t1.coefficient(m)) < 1e-12
    with pytest.raises(ConfigError):
        coefficients(PsiSpec("power", exponent=0.75), K=0.5, p=2.0, depth=8)


def test_coefficients_growth_failed():
    with pytest.raises(GrowthConditionError):
        coefficients(PsiSpec("power", exponent=0.5), K=1.0, p=2.0, depth=24)


def test_coefficients_hold_at_most_max_term_count_levels():
    """A certificate window holds 64 terms, so a model holds at most 64
    levels; past that the schedule and its growth certificate are one config
    error naming the limit."""
    spec = PsiSpec("power", exponent=0.75)
    assert len(coefficients(spec, depth=64).levels) == 64
    assert validate_growth(spec, 2.0, depth=64).passed
    for depth in (65, 70, 1 << 40):
        for run in (lambda: coefficients(spec, depth=depth), lambda: validate_growth(spec, 2.0, depth=depth)):
            with pytest.raises(ConfigError, match="more than MAX_TERM_COUNT = 64 levels"):
                run()
    # a slope of 2 reaches 35 levels at depth 70
    assert len(coefficients(spec, rule=SequenceRule("affine", a=2.0), depth=70).levels) == 35


def test_no_level_within_depth_is_one_config_error():
    """A rule with no level within the depth has nothing to certify: the
    certificate and the schedule refuse it alike."""
    rule = SequenceRule("list", values=(5, 6, 7))
    spec = PsiSpec("power", exponent=0.75)
    for run in (lambda: validate_growth(spec, 2.0, rule, 3), lambda: coefficients(spec, rule=rule, depth=3)):
        with pytest.raises(ConfigError, match="no sequence level within depth 3"):
            run()
    assert validate_growth(spec, 2.0, rule, 5).passed


def test_tail_past_the_float_range_is_a_config_error():
    """The tail past the depth and, at finite p, its p-th power must be
    finite floats, as each coefficient and its p-th power must: at depth 1
    the tail is about 7.5 times c_1, so some K passes the coefficient and
    fails the tail."""
    spec = PsiSpec("power", exponent=0.75)
    assert coefficients(spec, K=3e152, p=2.0, depth=1).coefficient(1) ** 2.0 < math.inf
    with pytest.raises(ConfigError, match=r"tail bound past depth 1 is 4\.2\d*e\+154, whose power p = 2\.0"):
        coefficients(spec, K=1e153, p=2.0, depth=1)
    # at p = inf only the tail itself must be finite
    assert coefficients(spec, K=1e153, p=math.inf, depth=1).coefficient(1) < math.inf
    with pytest.raises(ConfigError, match="tail bound past depth 1 is inf, past the float range"):
        coefficients(spec, K=3e307, p=math.inf, depth=1)


def test_tail_bound_anchor():
    table = coefficients(PsiSpec("power", exponent=0.75), K=1.0, p=2.0, depth=24)
    got = tail_bound(table, 20)
    want = 0.25 / (1.0 - 2.0**-0.25)  # first omitted c-term is exactly 1/4
    assert abs(got - want) < 1e-12
    assert abs(got - 1.5713) < 1e-3


def test_tail_bound_dominates_actual_tail():
    spec = PsiSpec("power", exponent=0.75)
    rule = SequenceRule("affine")
    table = coefficients(spec, K=1.0, p=2.0, rule=rule, depth=24)
    for N in (1, 5, 10, 20, 24, 30):
        bound = tail_bound(table, N)
        actual = math.fsum(
            2.0 * growth_term(spec, 2.0, rule, m)
            for m in range(1, 64)
            if rule.term(m) > N
        )
        assert actual <= bound + 1e-12, N


def test_tail_bound_past_realized_depth():
    table = coefficients(PsiSpec("power", exponent=0.75), K=1.0, p=2.0, depth=8)
    b30 = tail_bound(table, 30)
    assert 0.0 < b30 < tail_bound(table, 8)


def test_tail_bound_list_rule_continuation():
    spec = PsiSpec("power", exponent=0.75)
    rule = SequenceRule("list", values=tuple(range(1, 33)))
    table = coefficients(spec, K=1.0, p=2.0, rule=rule, depth=24)
    # beyond the list's reach the certificate bounds term 32 + j by
    # ratio^j * term 32, and the bound holds that continuation's sum
    last = 2.0 * table.K * growth_term(spec, 2.0, rule, 32)
    continuation = math.fsum(last * table.certificate.ratio**j for j in range(1, 101))
    assert 0.0 < continuation <= tail_bound(table, 40)


def _pettis_tail_formula(table, N):
    """The pettis tail as a formula of its own: 2K * term_m / (1 - r) from
    the first omitted index m, continued from the last term of a list rule
    past its end.  Defined for N >= p_n0 only."""
    rule, r = table.rule, table.certificate.ratio
    factor = 2.0 * table.K
    m = len(rule.levels_within(N)) + 1
    if m <= (rule.max_index() or m):
        return factor * growth_term(table.spec, table.p, rule, m) / (1.0 - r)
    return factor * growth_term(table.spec, table.p, rule, m - 1) * r / (1.0 - r)


def _head_tail_formula(table, N):
    """The pettis tail below p_n0, as the continuous formula adds it: the
    terms m..n0-1 as they are, then 2K * term_n0 / (1 - r)."""
    cert = table.certificate
    factor = 2.0 * table.K
    m = len(table.rule.levels_within(N)) + 1
    first = growth_term(table.spec, table.p, table.rule, cert.n0)
    return factor * math.fsum(cert.terms[m - 1 : cert.n0 - 1]) + factor * first / (1.0 - cert.ratio)


def _continuous_tail_formula(model):
    """The continuous tail as a formula of its own: 2K * head + 2K * u / (1 - r)."""
    cert = model.certificate
    head = math.fsum(cert.terms[model.depth - 2 : cert.n0 - 1])
    first = summability_term(model.psi, model.rule, max(model.depth - 1, cert.n0))
    return 2.0 * model.K * head + (2.0 * model.K * first) / (1.0 - cert.ratio)


#: psi is nearly flat on [2^-8, 4] and 4s below, so the certificates start late.
_FLAT_HEAD = PsiSpec("custom-table", knots=((0.0, 0.0), (2.0**-8, 2.0**-6), (4.0, 2.0**-5)))


def test_tail_bound_bits_match_the_separate_formulas():
    """Both tails come from ``GrowthReport.tail``, scaled by 2K; each keeps
    the float of the formula it replaced, and a pettis truncation below
    p_n0, once refused, adds its head terms as the continuous tail does.
    K = 1.5 and 2.5 make the scaling inexact, so an order of operations
    slip shows here and in no digest."""
    # the list rule runs out at p_24, so N > 24 takes the continuation
    rules = (SequenceRule("affine"), SequenceRule("affine", a=2.0),
             SequenceRule("list", values=tuple(range(1, 25))))
    head = 0
    for spec, K, p, rule in itertools.product(
        (PsiSpec("power", exponent=0.75), _FLAT_HEAD), (1.0, 1.5, 2.5), (2.0, 3.0, math.inf), rules
    ):
        for depth in range(8, 25):
            table = coefficients(spec, K=K, p=p, rule=rule, depth=depth)
            for N in range(depth + 8):
                got = tail_bound(table, N)
                if N >= rule.term(table.certificate.n0):
                    assert got.hex() == _pettis_tail_formula(table, N).hex(), (spec, K, p, rule, depth, N)
                else:
                    head += 1
                    assert got.hex() == _head_tail_formula(table, N).hex(), (spec, K, p, rule, depth, N)
    assert head > 0
    list_rule = SequenceRule("list", values=tuple(range(3, 200, 3)))
    for spec, rule in ((PsiSpec("power", exponent=0.25), SequenceRule("affine", a=4.0)),
                       (_FLAT_HEAD, SequenceRule("affine")), (PsiSpec("power", exponent=0.25), list_rule)):
        for K in (1.0, 1.5, 2.5):
            for depth in range(2, 66):
                model = build_continuous_model(spec, K=K, rule=rule, depth=depth)
                assert model.tail().hex() == _continuous_tail_formula(model).hex(), (spec, rule, K, depth)


def test_summability_certificate():
    report = validate_summable(PsiSpec("power", exponent=0.25), SequenceRule("affine", a=4.0))
    assert report.passed
    assert abs(report.ratio - 0.5) < 1e-12
    flat = validate_summable(PsiSpec("custom-table", knots=((0.0, 0.0), (1e-12, 1.0), (1.0, 1.0))))
    assert not flat.passed  # constant positive terms cannot certify


def test_psi_spec_json_round_trip():
    for spec in (
        PsiSpec("power", exponent=0.75),
        PsiSpec("sqrt-log", epsilon=1.0),
        PsiSpec("custom-table", knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))),
    ):
        # p is a model setting, not part of the gauge
        assert "p" not in spec.to_json()
        assert PsiSpec.from_json(spec.to_json()) == spec
    rule = SequenceRule("affine", a=4.0, b=1)
    assert SequenceRule.from_json(rule.to_json()) == rule
    lst = SequenceRule("list", values=(1, 3, 6))
    assert SequenceRule.from_json(lst.to_json()) == lst


def test_sequence_rule_json_rejects_unknown_kinds():
    # an unknown kind is named, whether or not a "list" array comes with it
    for obj in ({"kind": "geometric", "list": [1, 2, 3]}, {"kind": "geometric"}):
        with pytest.raises(ConfigError, match="unknown sequence rule kind 'geometric'"):
            SequenceRule.from_json(obj)
    # the two known kinds still load, and a rule without a kind is affine
    assert SequenceRule.from_json({"kind": "list", "list": [1, 2]}).values == (1, 2)
    assert SequenceRule.from_json({}) == SequenceRule("affine")


@pytest.mark.parametrize(
    "validate, deepest, too_short",
    [
        # levels 1..depth of a pettis model; 64 of them fill the window
        # (test_coefficients_hold_at_most_max_term_count_levels)
        (lambda spec, rule, **kw: validate_growth(spec, rule=rule, **kw), 64, "list rule too short"),
        # levels 2..depth of a continuous model, which also needs p_depth
        (lambda spec, rule, **kw: validate_summable(spec, rule, **kw), 65, "list rule has only 1 entries"),
    ],
    ids=["growth", "summable"],
)
def test_certificate_prologue_rejects_bad_limits(validate, deepest, too_short):
    """The window is min(64, max(48, 2 * levels)) terms and no more than a
    list rule has; a depth past 64 levels and a list rule too short for one
    ratio are refused."""
    spec = PsiSpec("power", exponent=0.75)
    affine = SequenceRule("affine")
    for depth, n_max in ((2, 48), (8, 48), (40, 64), (deepest, 64)):
        assert validate(spec, affine, depth=depth).n_max == n_max
    for depth in (deepest + 1, 1 << 40):
        with pytest.raises(ConfigError, match="more than MAX_TERM_COUNT = 64 levels"):
            validate(spec, affine, depth=depth)
    with pytest.raises(ConfigError, match=too_short):
        validate(spec, SequenceRule("list", values=(3,)), depth=3)
    assert validate(spec, SequenceRule("list", values=(1, 2)), depth=2).n_max == 2


@pytest.mark.parametrize("kink, passed", [(0, True), (1, False)], ids=["half", "past-half"])
def test_certify_searches_n0_up_to_half_the_window(kink, passed):
    """n0 may be at most n_max // 2.  Terms flat through term h and halving
    after it certify only from n0 = h: they pass at h = n_max // 2 and fail
    at h = n_max // 2 + 1."""
    h = 48 // 2 + kink
    report = psi_module._certify(tuple(0.5 ** max(0, n - h) for n in range(1, 49)), 2.0)
    assert report.n_max == 48
    assert report.passed is passed
    assert (report.n0, report.ratio) == ((24, 0.5) if passed else (None, None))


def _decide(terms):
    report = psi_module._certify(tuple(terms), 2.0)
    return report.passed, report.n0, report.ratio


def test_certify_n0_follows_the_last_ratio_above_the_cap():
    """n0 is one past the last ratio above RATIO_CAP, however many come
    before it, and the certified ratio is the largest from n0 on."""
    # 16 terms: ratios 0.5 except 2.0 at n = 2, 0.96 at n = 4 and 1.0 at n = 6
    terms = [1.0, 0.5, 1.0, 0.5, 0.48, 0.24, 0.24] + [0.24 * 0.5**j for j in range(1, 10)]
    assert _decide(terms) == (True, 7, 0.5)
    # one more ratio above the cap at n = 9 puts n0 = 10 past n_max // 2 = 8
    terms[9:] = [terms[8] * 0.96 * 0.5**j for j in range(7)]
    assert _decide(terms) == (False, None, None)
    # all ratios under the cap: n0 = 1, the ratio the largest of them
    assert _decide([1.0, 0.9, 0.45, 0.2]) == (True, 1, 0.9)


def test_certify_ratios_of_zero_terms():
    """A zero term followed by zero has ratio 0.0; followed by a positive
    term, ratio inf, which no n0 before it can certify."""
    assert _decide([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]) == (True, 1, 0.5)
    assert _decide([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) == (True, 1, 0.0)
    # 8 terms, n_max // 2 = 4: the ratio inf at n = 3 gives n0 = 4, at n = 4 n0 = 5
    assert _decide([0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]) == (True, 4, 0.5)
    assert _decide([0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125]) == (False, None, None)


def test_certify_a_two_term_list_rule():
    """A list rule of 2 terms gives a window of 2 and one ratio: n0 = 1
    when that ratio is under the cap, FAIL otherwise."""
    assert _decide([1.0, 0.5]) == (True, 1, 0.5)
    assert _decide([1.0, 0.96]) == (False, None, None)
    spec, rule = PsiSpec("power", exponent=0.75), SequenceRule("list", values=(1, 2))
    report = validate_growth(spec, 2.0, rule, 2)
    assert (report.n_max, report.passed, report.n0) == (2, True, 1)
    assert report.ratio == report.terms[1] / report.terms[0]
    assert abs(report.ratio - 2.0**-0.25) < 1e-15


def test_coefficients_evaluate_each_gauge_factor_once(monkeypatch):
    """A depth-12 stratified build (the pairing-strat12 model) evaluates psi
    at the 48 growth-term arguments once each; the coefficients reuse them."""
    from pettis_forge.config import build_model_from_config

    calls = []

    def counting(spec, s):
        calls.append(s)
        return eval_psi_total(spec, s)

    monkeypatch.setattr(psi_module, "eval_psi_total", counting)
    build_model_from_config({
        "kind": "pettis", "psi": {"family": "power", "exponent": 0.75}, "K": 1.0, "p": 2.0,
        "rule": {"kind": "affine", "a": 1, "b": 0}, "depth": 12,
        "carriers": {"scheme": "stratified"},
    })
    assert len(calls) == len(set(calls)) == 48
    # the shared factors give the coefficients' own floats
    spec, rule = PsiSpec("power", exponent=0.75), SequenceRule("affine", a=2.0)
    table = coefficients(spec, K=1.5, p=3.0, rule=rule, depth=24)
    for n, m in enumerate(table.levels, start=1):
        want = 2.0 * 1.5 * eval_psi_total(spec, math.ldexp(4.0, -rule.term(n - 1)))
        assert table.coefficient(m).hex() == want.hex()


def test_continuous_build_evaluates_each_gauge_value_once(monkeypatch):
    """The ref9 continuous build evaluates psi at u_0 and at the certificate's
    48 arguments u_1..u_48 once each; its coefficients reuse u_0..u_7."""
    calls = []

    def counting(spec, s):
        calls.append(s)
        return eval_psi_total(spec, s)

    monkeypatch.setattr(psi_module, "eval_psi_total", counting)
    spec, rule = PsiSpec("power", exponent=0.25), SequenceRule("affine", a=4.0)
    model = build_continuous_model(spec, K=1.5, rule=rule, depth=9)
    assert len(calls) == len(set(calls)) == 49
    # the shared terms give the coefficients' own floats
    for n in range(2, 10):
        want = 2.0 * 1.5 * eval_psi_total(spec, math.ldexp(1.0, -rule.term(n - 2)))
        assert model.coefficient(n).hex() == want.hex()
