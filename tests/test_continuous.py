"""Continuous model: walks, separation bound, modulus witness."""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pettis_forge import (
    PsiSpec,
    SequenceRule,
    build_continuous_model,
    check_pair,
    eval_f,
    eval_fn,
    eval_psi_total,
    separation_lower_bound,
)
from pettis_forge.blocks import BlockVector
from pettis_forge.errors import ConfigError, GrowthConditionError, PairTooCloseError

#: The largest float below 1.0, the last point of [0, 1).
LAST = math.nextafter(1.0, 0.0)

_points = st.one_of(st.sampled_from([0.0, LAST]), st.floats(0.0, 1.0, exclude_max=True))


def test_build_and_schedule(cmodel9):
    assert cmodel9.depth == 9
    # c_n = 2 * psi(2^-p_(n-2)) = 2^(3-n) for the quarter-power gauge, p_n = 4n
    for n in range(2, 10):
        assert abs(cmodel9.coefficient(n) - 2.0 ** (3 - n)) < 1e-12
    # block n holds 2^p_n + 1 coordinates: the walk's last step needs the extra one
    for n in range(2, 10):
        assert dict(cmodel9.layout.dims)[n] == (1 << (4 * n)) + 1


def test_build_guards():
    with pytest.raises(GrowthConditionError):
        # flat positive plateau across every reachable scale: not summable
        build_continuous_model(
            PsiSpec("custom-table", knots=((0.0, 0.0), (1e-300, 1.0), (1.0, 1.0)))
        )
    with pytest.raises(ConfigError):
        build_continuous_model(PsiSpec("power", exponent=0.25), K=0.5)
    with pytest.raises(ConfigError):
        build_continuous_model(PsiSpec("power", exponent=0.25), depth=1)
    # p_3 = 3600: 2^p_depth is past the float range, which the walk and the
    # Lipschitz bound need; building it used to succeed and verify to crash
    with pytest.raises(ConfigError, match="p_depth < 1024"):
        build_continuous_model(
            PsiSpec("power", exponent=0.25), rule=SequenceRule("affine", a=1200.0), depth=3
        )


def test_eval_fn_endpoints_and_midpoint(cmodel9):
    n = 2
    pn = 4 * n
    w = math.ldexp(1.0, -pn)
    # left endpoint of cell k: pure k-th coordinate
    v = eval_fn(cmodel9, n, 3 * w)
    assert dict(v.coeffs) == {(n, 4): 1.0}
    # midpoint: equal halves on adjacent coordinates, norm sqrt(2)/2
    v = eval_fn(cmodel9, n, 3 * w + w / 2)
    assert dict(v.coeffs) == {(n, 4): 0.5, (n, 5): 0.5}
    assert abs(v.norm() - math.sqrt(0.5)) < 1e-15
    # last cell: the walk touches coordinate 2^p_n + 1, which the layout has
    v = eval_fn(cmodel9, n, 1.0 - w / 4)
    assert set(v.coeffs) == {(n, 1 << pn), (n, (1 << pn) + 1)}
    with pytest.raises(ConfigError):
        eval_fn(cmodel9, 1, 0.5)
    with pytest.raises(ConfigError):
        eval_fn(cmodel9, 10, 0.5)


def test_eval_fn_norm_range(cmodel9):
    rng = random.Random(2)
    for _ in range(2000):
        v = eval_fn(cmodel9, rng.randint(2, 9), rng.random())
        assert math.sqrt(0.5) - 1e-12 <= v.norm() <= 1.0 + 1e-12


def test_eval_f_at_zero(cmodel9):
    v, tail = eval_f(cmodel9, 0.0)
    # every walk starts at its first coordinate
    want = math.sqrt(math.fsum(cmodel9.coefficient(n) ** 2 for n in range(2, 10)))
    assert abs(v.norm() - want) < 1e-12
    assert set(v.coeffs) == {(n, 1) for n in range(2, 10)}
    assert tail > 0.0
    # convexity bound per block
    assert v.norm() <= math.fsum(cmodel9.coeffs) + 1e-12


def test_eval_f_tail_is_geometric(cmodel9):
    _, tail = eval_f(cmodel9, 0.37)
    # coefficients halve per level: the omitted sum is c_10 + c_11 + ... = 2 * c_10
    want = 2.0 * 2.0 ** (3 - 10)
    assert abs(tail - want) < 1e-12


def test_tail_before_the_certificate_index():
    # psi is 1 on [2^-10, 1], so u_m = psi(2^-m) is 1 up to m = 10 and halves
    # after: the ratio certificate only starts at n0 = 10
    spec = PsiSpec("custom-table", knots=((0.0, 0.0), (2.0**-10, 1.0), (1.0, 1.0)))
    rule = SequenceRule("affine", a=1.0)
    for depth in range(2, 16):
        model = build_continuous_model(spec, K=1.0, rule=rule, depth=depth)
        assert model.certificate.n0 == 10
        # sum of c_n = 2 * u_(n-2) over n > depth, exact in binary floats
        true_tail = 2.0 * (max(0, 12 - depth) + min(1.0, 2.0 ** (12 - depth)))
        assert model.tail() == true_tail, depth
        assert eval_f(model, 0.3)[1] == true_tail
    assert build_continuous_model(spec, K=1.0, rule=rule, depth=5).tail() == 16.0


def test_separation_pure_coordinate_pair(cmodel9):
    # points at left endpoints of distant cells of partition n+1 give a
    # sqrt(2) * c_(n+1) block distance
    d_target = 2.0**-3  # 2^-p_1 < d <= 2^-p_0 brackets at n = 1, block 2
    s = 0.0
    t = s + d_target
    dist = abs(s - t)
    assert math.ldexp(1.0, -cmodel9.rule.term(1)) < dist <= math.ldexp(1.0, -cmodel9.rule.term(0))
    got = separation_lower_bound(cmodel9, s, t)
    # both points happen to sit at cell left endpoints of partition 2
    want = cmodel9.coefficient(2) * math.sqrt(2.0)
    assert abs(got - want) < 1e-12
    assert got >= cmodel9.coefficient(2) - 1e-12


def test_separation_bracket_boundary(cmodel9):
    # distance exactly 2^-p_(n-1): the closed right end of the bracket
    d = math.ldexp(1.0, -cmodel9.rule.term(1))  # 2^-4
    pc = check_pair(cmodel9, 0.1, 0.1 + d)
    assert pc.holds


def test_pair_too_close(cmodel9):
    floor = cmodel9.separation_floor()
    with pytest.raises(PairTooCloseError):
        separation_lower_bound(cmodel9, 0.2, 0.2 + floor / 2)
    with pytest.raises(ValueError):
        check_pair(cmodel9, 0.3, 0.3)


def test_four_square_bracket_floor():
    # [a^2 + (1-a)^2 + b^2 + (1-b)^2]^(1/2) >= 1, minimum at a = b = 1/2
    vals = [i / 50 for i in range(51)]
    m = min(
        math.sqrt(a * a + (1 - a) ** 2 + b * b + (1 - b) ** 2) for a in vals for b in vals
    )
    assert m >= 1.0 - 1e-12
    assert abs(math.sqrt(4 * 0.25) - 1.0) < 1e-15


def test_everywhere_lower_bound_sampled(cmodel9):
    rng = random.Random(20260810)
    floor = cmodel9.separation_floor()
    checked = 0
    while checked < 2000:
        s, t = rng.random(), rng.random()
        if abs(s - t) <= floor:
            continue
        pc = check_pair(cmodel9, s, t)
        assert pc.holds, (s, t)
        assert pc.rhs == eval_psi_total(cmodel9.psi, abs(s - t))
        checked += 1


def test_lipschitz_plus_tail_modulus(cmodel9):
    rng = random.Random(404)
    lip = cmodel9.lipschitz_constant()
    tail2 = 2.0 * cmodel9.tail()
    for _ in range(2000):
        s, t = rng.random(), rng.random()
        if s == t:
            continue
        fa, _ = eval_f(cmodel9, s)
        fb, _ = eval_f(cmodel9, t)
        d = fa.sub(fb).norm()
        assert d <= lip * abs(s - t) + tail2 + 1e-9


def test_truncation_is_exact_lower_bound(cmodel9):
    # adding deeper levels can only grow the distance: disjoint blocks
    shallow = build_continuous_model(
        PsiSpec("power", exponent=0.25), rule=SequenceRule("affine", a=4.0), depth=5
    )
    rng = random.Random(7)
    for _ in range(300):
        s, t = rng.random(), rng.random()
        if abs(s - t) <= cmodel9.separation_floor():
            continue
        fa5, _ = eval_f(shallow, s)
        fb5, _ = eval_f(shallow, t)
        fa9, _ = eval_f(cmodel9, s)
        fb9, _ = eval_f(cmodel9, t)
        assert fa5.sub(fb5).norm() <= fa9.sub(fb9).norm() + 1e-12


def test_eval_f_is_the_union_of_scaled_walks(cmodel9):
    rng = random.Random(31)
    w2 = math.ldexp(1.0, -cmodel9.rule.term(2))
    left_ends = [k * w2 for k in range(1 << cmodel9.rule.term(2))]
    for omega in [rng.random() for _ in range(500)] + left_ends:
        v, _ = eval_f(cmodel9, omega)
        want = {}
        for n in range(2, cmodel9.depth + 1):
            c = cmodel9.coefficient(n)
            want.update({nk: c * x for nk, x in eval_fn(cmodel9, n, omega).coeffs.items()})
        assert dict(v.coeffs) == want, omega
    # at a level-2 left endpoint every walk sits on its first coordinate (alpha = 1)
    for omega in left_ends:
        v, _ = eval_f(cmodel9, omega)
        for n in range(2, cmodel9.depth + 1):
            k = math.floor(math.ldexp(omega, cmodel9.rule.term(n))) + 1
            assert v.coeffs[(n, k)] == cmodel9.coefficient(n)
            assert (n, k + 1) not in v.coeffs


def test_block_vectors_built_per_point(cmodel9, monkeypatch):
    built = []
    post_init = BlockVector.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BlockVector, "__post_init__", counting_post_init)
    eval_f(cmodel9, 0.37)
    assert len(built) == 1
    built.clear()
    check_pair(cmodel9, 0.37, 0.81)
    assert built == []


@settings(max_examples=300, deadline=None)
@given(s=_points, t=_points)
@example(s=0.0, t=LAST)
@example(s=LAST, t=0.0)
# cells of width 2^-8 at the coarsest level (n = 2): same, adjacent, two apart
@example(s=0.5 + 2.0**-10, t=0.5 + 2.0**-9)
@example(s=0.5 - 2.0**-10, t=0.5 + 2.0**-10)
@example(s=0.5 - 2.0**-10, t=0.5 + 2.0**-8 + 2.0**-10)
# cells of width 2^-20 at a middle level (n = 5): same, adjacent, two apart
@example(s=0.5 + 2.0**-22, t=0.5 + 2.0**-21)
@example(s=0.5 - 2.0**-22, t=0.5 + 2.0**-22)
@example(s=0.5 - 2.0**-22, t=0.5 + 2.0**-20 + 2.0**-22)
def test_check_pair_is_the_block_vector_distance(cmodel9, s, t):
    # the block-vector route validates every coordinate against the layout,
    # so this also shows that the pair kernel's walk stays inside each block;
    # the examples put s and t in the same, adjacent and separated cells, so
    # both the merged and the four-square branch of a level are compared
    assume(abs(s - t) > cmodel9.separation_floor())
    want = eval_f(cmodel9, s)[0].sub(eval_f(cmodel9, t)[0]).norm()
    assert check_pair(cmodel9, s, t).lhs.hex() == want.hex()


def test_check_pair_error_order(cmodel9):
    floor = cmodel9.separation_floor()
    # equal points are refused first, even outside [0, 1)
    with pytest.raises(ValueError, match="distinct"):
        check_pair(cmodel9, 1.5, 1.5)
    # a pair too close to bracket is refused before either point is evaluated
    with pytest.raises(PairTooCloseError):
        check_pair(cmodel9, 1.0, 1.0 - floor / 2)
    with pytest.raises(PairTooCloseError):
        check_pair(cmodel9, math.nan, 0.5)
    # a bracketable distance with a point outside [0, 1)
    for s, t in ((0.5, 1.0), (1.0, 0.5), (-0.25, 0.5)):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)") as info:
            check_pair(cmodel9, s, t)
        assert type(info.value) is ValueError


def test_check_pair_slack(cmodel9):
    # holds is lhs >= rhs with no slack: scale the coefficients so that lhs
    # lands just above rhs, and just below it by less than 1e-12
    s, t = 0.1, 0.6
    pc = check_pair(cmodel9, s, t)
    for short, holds in ((-0.5e-12, True), (0.5e-12, False), (2e-12, False)):
        scale = (pc.rhs - short) / pc.lhs
        model = dataclasses.replace(cmodel9, coeffs=tuple(c * scale for c in cmodel9.coeffs))
        got = check_pair(model, s, t)
        assert got.rhs == pc.rhs
        assert abs(got.lhs - (pc.rhs - short)) < 1e-14
        assert got.holds is holds


def test_model_pickles_after_check_pair():
    model = build_continuous_model(
        PsiSpec("power", exponent=0.25), rule=SequenceRule("affine", a=4.0), depth=9
    )
    before = check_pair(model, 0.37, 0.81)
    assert "geometry" in vars(model)  # the cached levels travel with the model
    clone = pickle.loads(pickle.dumps(model))
    assert clone == model
    assert clone.geometry == model.geometry
    assert check_pair(clone, 0.37, 0.81).lhs.hex() == before.lhs.hex()
