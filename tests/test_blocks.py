"""Block-space norms, projections, pairings, and their inequalities."""

import math
import random

import pytest

from pettis_forge import BlockLayout, BlockVector, Functional, dual_exponent
from pettis_forge.errors import LayoutMismatchError

L2 = BlockLayout.power_of_two(2.0, 6)


def test_norm_examples():
    assert BlockVector(L2, {(1, 1): 3.0, (1, 2): 4.0}).norm() == 5.0
    l1 = BlockLayout.power_of_two(1.0, 6)
    assert BlockVector(l1, {(2, 1): 0.5, (3, 2): 0.25}).norm() == 0.75
    assert BlockVector(L2).norm() == 0.0


def test_norm_sup():
    linf = BlockLayout.power_of_two(math.inf, 6)
    v = BlockVector(linf, {(1, 1): -3.0, (2, 2): 2.0})
    assert v.norm() == 3.0


def test_apply_examples():
    x = Functional(L2, {(1, 1): 1.0})
    assert x.apply(BlockVector(L2, {(1, 1): 3.0})) == 3.0
    assert x.apply(BlockVector(L2, {(2, 2): 5.0})) == 0.0
    cancel = Functional(L2, {(1, 1): 1.0, (1, 2): -1.0})
    assert cancel.apply(BlockVector(L2, {(1, 1): 2.0, (1, 2): 2.0})) == 0.0


def test_add_scale_identities():
    v = BlockVector(L2, {(1, 1): 1.0, (3, 5): -2.0})
    assert v.add(BlockVector(L2)) == v
    assert v.scale(0.0) == BlockVector(L2)
    assert abs(v.scale(-2.0).norm() - 2.0 * v.norm()) < 1e-15
    a = BlockVector(L2, {(1, 1): 3.0})
    b = BlockVector(L2, {(2, 2): 4.0})
    assert abs(a.add(b).norm() ** 2 - (a.norm() ** 2 + b.norm() ** 2)) < 1e-12


def test_zero_coefficients_dropped_and_validated():
    v = BlockVector(L2, {(1, 1): 0.0, (2, 2): 1.0})
    assert (1, 1) not in v.coeffs
    with pytest.raises(LayoutMismatchError):
        BlockVector(L2, {(7, 1): 1.0})
    with pytest.raises(LayoutMismatchError):
        BlockVector(L2, {(2, 5): 1.0})  # block 2 has dimension 4


def test_layout_mismatch_on_mixed_operands():
    other = BlockLayout.power_of_two(1.0, 6)
    with pytest.raises(LayoutMismatchError):
        BlockVector(L2, {(1, 1): 1.0}).add(BlockVector(other, {(1, 1): 1.0}))
    with pytest.raises(LayoutMismatchError):
        Functional(other, {(1, 1): 1.0}).apply(BlockVector(L2, {(1, 1): 1.0}))


def test_dual_exponent():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert abs(dual_exponent(4.0) - 4.0 / 3.0) < 1e-15


def _random_vector(rng, layout, coords=6, span=4.0):
    out = {}
    for _ in range(rng.randint(1, coords)):
        n = rng.randint(1, 6)
        out[(n, rng.randint(1, 1 << n))] = rng.uniform(-span, span)
    return out


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
def test_triangle_homogeneity_holder(p):
    layout = BlockLayout.power_of_two(p, 6)
    rng = random.Random(int(p * 100) if not math.isinf(p) else 77)
    for _ in range(2500):
        a = BlockVector(layout, _random_vector(rng, layout))
        b = BlockVector(layout, _random_vector(rng, layout))
        t = rng.uniform(-3.0, 3.0)
        assert a.add(b).norm() <= a.norm() + b.norm() + 1e-9
        assert abs(a.scale(t).norm() - abs(t) * a.norm()) <= 1e-9 * (1 + a.norm())
        x = Functional(layout, _random_vector(rng, layout))
        assert abs(x.apply(a)) <= x.dual_norm() * a.norm() + 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_direct_sum_p_additivity(p):
    layout = BlockLayout.power_of_two(p, 6)
    rng = random.Random(13)
    for _ in range(1000):
        a = BlockVector(layout, {(1, rng.randint(1, 2)): rng.uniform(-2, 2),
                                 (2, rng.randint(1, 4)): rng.uniform(-2, 2)})
        b = BlockVector(layout, {(4, rng.randint(1, 16)): rng.uniform(-2, 2),
                                 (5, rng.randint(1, 32)): rng.uniform(-2, 2)})
        lhs = a.add(b).norm() ** p
        rhs = a.norm() ** p + b.norm() ** p
        assert abs(lhs - rhs) <= 1e-9 * (1 + rhs)
