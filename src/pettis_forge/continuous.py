"""Continuous piecewise-linear model with an everywhere separation bound.

The model is f = sum over levels n >= 2 of c_n * f_n, where f_n walks the
k-th unit coordinate of block n toward the (k+1)-th as omega crosses the
k-th cell of the level-p_n dyadic partition:

    f_n(omega) = alpha * e(n, k) + (1 - alpha) * e(n, k + 1),
    alpha = k - omega * 2^p_n  in (0, 1].

Block n therefore needs dimension 2^p_n + 1 (the walk ends one coordinate
past the cell count), and ||f_n(omega)|| lies in [sqrt(2)/2, 1] for the
l_2 blocks used here.  The schedule is c_n = 2K * psi(2^-p_(n-2)); a ratio
certificate for sum psi(2^-p_n) (``validate_summable``, which holds the
model's limits too) makes the series converge, and its ``GrowthReport.tail``
bounds the omitted levels, as it does a pettis model's.

One walk primitive, ``_walk``, gives the cell index k and the weight alpha
from omega * 2^p_n for ``eval_fn`` and ``eval_f``; the per-level constants
come from the cached ``ContinuousModel.geometry``.  Levels are disjoint
blocks, so a point of the truncated series is the union of its levels'
coordinate pairs (``eval_f`` returns it as one block vector), and
||f(s) - f(t)||^2 is the sum over levels of the squared coordinate
differences.

``check_pair`` is one pass over the levels with the walk inlined, building
no block vector.  At level n, s touches coordinates ks, ks + 1 with values
c*a, c*(1 - a) and t touches kt, kt + 1 with values c*b, c*(1 - b).  When
|ks - kt| >= 2 the four coordinates are distinct, so the level adds exactly
the four squares (c*a)^2, (c*(1-a))^2, (c*b)^2, (c*(1-b))^2.  Only same or
adjacent cells share a coordinate; those levels merge the differences by
index in a small map first.  All squares go to one ``math.fsum``, and the
result is bit-identical to the norm of the block-vector difference
f(s) - f(t): ``fsum`` is exactly rounded, so the order of its terms does
not matter; a + (-1.0 * b) equals a - b; 0.0 - x is exactly -x and
(-x)^2 equals x^2, so a separated level's squares are the ones the
difference has; and the zero coordinates a block vector drops add nothing
to the sum.  The layout check it skips cannot fail: omega < 1 and
``ldexp`` is exact, so k <= 2^p_n and k + 1 is within the block.

For s, t at distance d with 2^-p_n < d <= 2^-p_(n-1), the points fall in
non-adjacent cells of partition n + 1, so the four coordinates touched by
f_(n+1)(s) and f_(n+1)(t) are distinct and the level-(n+1) block distance
is at least c_(n+1) >= 2K * psi(d) >= psi(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

from .blocks import BlockLayout, BlockVector
from .errors import ConfigError, GrowthConditionError, PairTooCloseError
from .psi import (
    GrowthReport,
    PsiSpec,
    SequenceRule,
    _require_in_range,
    eval_psi_total,
    summability_term,
    validate_summable,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PairCheck:
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ContinuousModel:
    """Immutable continuous model with certified tail and modulus bounds."""

    psi: PsiSpec
    rule: SequenceRule
    K: float
    depth: int
    layout: BlockLayout
    coeffs: tuple[float, ...]  # c_n for n = 2..depth
    certificate: GrowthReport

    @cached_property
    def geometry(self) -> tuple[tuple[int, float, int, float], ...]:
        """(n, c_n, p_n, 2^-p_(n-1)) per level n = 2..depth, built on first use.

        2^-p_(n-1) is level n's bracket floor: level n separates the pairs
        at distance d in (2^-p_(n-1), 2^-p_(n-2)].
        """
        term = self.rule.term
        return tuple(
            (n, c, term(n), math.ldexp(1.0, -term(n - 1)))
            for n, c in zip(range(2, self.depth + 1), self.coeffs)
        )

    def coefficient(self, n: int) -> float:
        if not (2 <= n <= self.depth):
            raise ConfigError(f"level {n} outside 2..{self.depth}")
        return self.coeffs[n - 2]

    def tail(self) -> float:
        """Bound on sum of c_n = 2K * u_(n-2) over n > depth: the certificate's tail from u_(depth-1)."""
        term = partial(summability_term, self.psi, self.rule)
        return self.certificate.tail(self.depth - 1, term, 2.0 * self.K, self.rule.max_index())

    def lipschitz_constant(self) -> float:
        """Lipschitz bound of the truncation: sqrt(2) * sum c_n * 2^p_n."""
        return _SQRT2 * math.fsum(c * math.ldexp(1.0, p) for _, c, p, _ in self.geometry)

    def separation_floor(self) -> float:
        """Smallest pair distance the truncated model can certify."""
        return self.geometry[-1][3]

    def config_json(self) -> dict:
        return {
            "kind": "continuous",
            "psi": self.psi.to_json(),
            "K": self.K,
            "rule": self.rule.to_json(),
            "depth": self.depth,
        }


def build_continuous_model(
    spec: PsiSpec,
    K: float = 1.0,
    rule: SequenceRule | None = None,
    depth: int = 9,
) -> ContinuousModel:
    """Validated continuous model over l_2 blocks of dimension 2^p_n + 1.

    c_n = 2K * u_(n-2) reads u_1..u_(depth-2) from the certificate's terms.
    A coefficient, its square (the blocks are l_2), the tail or the
    Lipschitz constant past the float range is a ``ConfigError``."""
    if rule is None:
        rule = SequenceRule("affine", a=4.0)
    if K < 1.0:
        raise ConfigError(f"basis constant K must be >= 1, got {K}")
    report = validate_summable(spec, rule, depth)  # also refuses a depth the model cannot hold
    if not report.passed:
        raise GrowthConditionError(
            f"gauge {spec.family} is not certified summable along the sequence rule"
        )
    u = (summability_term(spec, rule, 0), *report.terms[: depth - 2])
    coeffs = tuple(2.0 * K * un for un in u)
    # psi is nondecreasing, so c_2 = 2K * psi(1) is the largest coefficient
    _require_in_range("coefficient at level 2", coeffs[0], 2.0)
    layout = BlockLayout(
        2.0, tuple((n, (1 << rule.term(n)) + 1) for n in range(2, depth + 1))
    )
    model = ContinuousModel(
        psi=spec,
        rule=rule,
        K=K,
        depth=depth,
        layout=layout,
        coeffs=coeffs,
        certificate=report,
    )
    _require_in_range(f"tail bound past depth {depth}", model.tail(), math.inf)
    _require_in_range("Lipschitz constant", model.lipschitz_constant(), math.inf)
    return model


def _walk(scaled: float) -> tuple[int, float]:
    """(k, alpha) at scaled = omega * 2^p_n: omega lies in cell k and
    f_n(omega) = alpha * e(n, k) + (1 - alpha) * e(n, k + 1), alpha in (0, 1]."""
    k = math.floor(scaled) + 1
    return k, k - scaled


def _check_point(omega: float) -> None:
    if not (0.0 <= omega < 1.0):
        raise ValueError(f"point {omega} outside [0, 1)")


def _point(model: ContinuousModel, omega: float) -> BlockVector:
    _check_point(omega)
    coords: dict[tuple[int, int], float] = {}
    for n, c, p, _ in model.geometry:
        k, alpha = _walk(math.ldexp(omega, p))  # exact power-of-two scaling
        coords[(n, k)] = c * alpha
        coords[(n, k + 1)] = c * (1.0 - alpha)
    return BlockVector(model.layout, coords)


def eval_fn(model: ContinuousModel, n: int, omega: float) -> BlockVector:
    """The level-n walk f_n(omega): a convex pair of adjacent coordinates."""
    if not (2 <= n <= model.depth):
        raise ConfigError(f"level {n} outside 2..{model.depth}")
    _check_point(omega)
    k, alpha = _walk(math.ldexp(omega, model.geometry[n - 2][2]))
    return BlockVector(model.layout, {(n, k): alpha, (n, k + 1): 1.0 - alpha})


def eval_f(model: ContinuousModel, omega: float) -> tuple[BlockVector, float]:
    """Truncated value plus certified tail bound on the omitted levels.

    Levels are disjoint coordinate blocks, so the truncation's norm is the
    exact norm of the partial sum; the true value differs by at most the
    returned tail in norm.
    """
    return _point(model, omega), model.tail()


def _require_resolved(model: ContinuousModel, distance: float) -> None:
    """PairTooCloseError unless distance > the separation floor (NaN included)."""
    if not distance > model.separation_floor():
        raise PairTooCloseError(
            f"pair distance {distance} at or below the resolved scale "
            f"{model.separation_floor()}"
        )


def separation_lower_bound(model: ContinuousModel, s: float, t: float) -> float:
    """Exact block distance certifying ||f(s) - f(t)|| >= psi(|s - t|).

    Returns the level-(n+1) block distance, which is at least c_(n+1);
    block projections have norm 1 here, so it lower-bounds the full norm.
    """
    if s == t:
        raise ValueError("pair must be two distinct points")
    d = abs(s - t)
    _require_resolved(model, d)
    # the first level m = n + 1 with floor 2^-p_(m-1) < d, so 2^-p_n < d <= 2^-p_(n-1)
    m = next(m for m, _, _, floor in model.geometry if floor < d)
    return model.coefficient(m) * eval_fn(model, m, s).sub(eval_fn(model, m, t)).norm()


def check_pair(model: ContinuousModel, s: float, t: float) -> PairCheck:
    """Separation check: exact truncated distance against the gauge target.

    A level whose cells for s and t are at least two apart adds the four
    squares of its coordinates in closed form; a level with the same or
    adjacent cells merges the shared coordinate's difference first.  The
    module docstring shows why both give the block-vector norm bit for bit.
    """
    if s == t:
        raise ValueError("pair must be two distinct points")
    d = abs(s - t)
    _require_resolved(model, d)  # pair-too-close before either point is evaluated
    _check_point(s)
    _check_point(t)
    squares: list[float] = []
    for _, c, p, _ in model.geometry:
        # _walk inlined for s and t: alpha = k - omega * 2^p_n with k = floor + 1
        xs = math.ldexp(s, p)
        ks = math.floor(xs) + 1
        a = ks - xs
        xt = math.ldexp(t, p)
        kt = math.floor(xt) + 1
        b = kt - xt
        if abs(ks - kt) >= 2:  # four distinct coordinates: square each value
            ca, ca1, cb, cb1 = c * a, c * (1.0 - a), c * b, c * (1.0 - b)
            squares += (ca * ca, ca1 * ca1, cb * cb, cb1 * cb1)
        else:  # shared coordinates: merge c * (f_n(s) - f_n(t)) by index
            diff = {ks: c * a, ks + 1: c * (1.0 - a)}
            diff[kt] = diff.get(kt, 0.0) - c * b
            diff[kt + 1] = diff.get(kt + 1, 0.0) - c * (1.0 - b)
            squares += [x * x for x in diff.values()]
    lhs = math.sqrt(math.fsum(squares))
    rhs = eval_psi_total(model.psi, d)
    return PairCheck(holds=lhs >= rhs, lhs=lhs, rhs=rhs)
