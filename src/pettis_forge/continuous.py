"""Continuous piecewise-linear model with an everywhere separation bound.

The model is f = sum over levels n >= 2 of c_n * f_n, where f_n walks the
k-th unit coordinate of block n toward the (k+1)-th as omega crosses the
k-th cell of the level-p_n dyadic partition:

    f_n(omega) = alpha * e(n, k) + (1 - alpha) * e(n, k + 1),
    alpha = k - omega * 2^p_n  in (0, 1].

Block n therefore needs dimension 2^p_n + 1 (the walk ends one coordinate
past the cell count), and ||f_n(omega)|| lies in [sqrt(2)/2, 1] for the
l_2 blocks used here.  The schedule is c_n = 2K * psi(2^-p_(n-2)), and a
ratio certificate for sum psi(2^-p_n) makes the series and its tail bounds
computable.

One walk kernel, ``_walk``, gives c * f_n(omega) as its two coordinates.
Levels are disjoint blocks, so a point of the truncated series is the union
of its levels' coordinate pairs and is built as a single block vector.

For s, t at distance d with 2^-p_n < d <= 2^-p_(n-1), the points fall in
non-adjacent cells of partition n + 1, so the four coordinates touched by
f_(n+1)(s) and f_(n+1)(t) are distinct and the level-(n+1) block distance
is at least c_(n+1) >= 2K * psi(d) >= psi(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import BlockLayout, BlockVector
from .errors import ConfigError, GrowthConditionError, PairTooCloseError
from .psi import (
    GrowthReport,
    PsiSpec,
    SequenceRule,
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

    def coefficient(self, n: int) -> float:
        if not (2 <= n <= self.depth):
            raise ConfigError(f"level {n} outside 2..{self.depth}")
        return self.coeffs[n - 2]

    def tail(self) -> float:
        """Bound on sum of c_n for n > depth (geometric continuation)."""
        first_omitted = 2.0 * self.K * summability_term(self.psi, self.rule, self.depth - 1)
        return self.certificate.geometric_tail(first_omitted)

    def lipschitz_constant(self) -> float:
        """Lipschitz bound of the truncation: sqrt(2) * sum c_n * 2^p_n."""
        return _SQRT2 * math.fsum(
            self.coefficient(n) * math.ldexp(1.0, self.rule.term(n))
            for n in range(2, self.depth + 1)
        )

    def modulus_bound(self, distance: float) -> float:
        """Uniform-continuity witness: Lipschitz-plus-tail modulus."""
        return self.lipschitz_constant() * distance + 2.0 * self.tail()

    def separation_floor(self) -> float:
        """Smallest pair distance the truncated model can certify."""
        return math.ldexp(1.0, -self.rule.term(self.depth - 1))

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
    """Validated continuous model over l_2 blocks of dimension 2^p_n + 1."""
    if rule is None:
        rule = SequenceRule("affine", a=4.0)
    if K < 1.0:
        raise ConfigError(f"basis constant K must be >= 1, got {K}")
    if depth < 2:
        raise ConfigError(f"continuous model needs depth >= 2, got {depth}")
    report = validate_summable(spec, rule)
    if not report.passed:
        raise GrowthConditionError(
            f"gauge {spec.family} is not certified summable along the sequence rule"
        )
    coeffs = tuple(
        2.0 * K * summability_term(spec, rule, n - 2) for n in range(2, depth + 1)
    )
    layout = BlockLayout(
        2.0, tuple((n, (1 << rule.term(n)) + 1) for n in range(2, depth + 1))
    )
    return ContinuousModel(
        psi=spec,
        rule=rule,
        K=K,
        depth=depth,
        layout=layout,
        coeffs=coeffs,
        certificate=report,
    )


def _walk(model: ContinuousModel, n: int, omega: float, c: float) -> dict[tuple[int, int], float]:
    """c * f_n(omega) as its two coordinates; the second is 0.0 when alpha = 1."""
    if not (2 <= n <= model.depth):
        raise ConfigError(f"level {n} outside 2..{model.depth}")
    if not (0.0 <= omega < 1.0):
        raise ValueError(f"point {omega} outside [0, 1)")
    scaled = math.ldexp(omega, model.rule.term(n))  # exact power-of-two scaling
    k = math.floor(scaled) + 1
    alpha = k - scaled  # in (0, 1]
    return {(n, k): c * alpha, (n, k + 1): c * (1.0 - alpha)}


def _point(model: ContinuousModel, omega: float) -> BlockVector:
    coords: dict[tuple[int, int], float] = {}
    for n in range(2, model.depth + 1):
        coords.update(_walk(model, n, omega, model.coefficient(n)))
    return BlockVector(model.layout, coords)


def eval_fn(model: ContinuousModel, n: int, omega: float) -> BlockVector:
    """The level-n walk f_n(omega): a convex pair of adjacent coordinates."""
    return BlockVector(model.layout, _walk(model, n, omega, 1.0))


def eval_f(model: ContinuousModel, omega: float) -> tuple[BlockVector, float]:
    """Truncated value plus certified tail bound on the omitted levels.

    Levels are disjoint coordinate blocks, so the truncation's norm is the
    exact norm of the partial sum; the true value differs by at most the
    returned tail in norm.
    """
    return _point(model, omega), model.tail()


def _bracket_level(model: ContinuousModel, distance: float) -> int:
    """Smallest n >= 1 with 2^-p_n < distance (then distance <= 2^-p_(n-1))."""
    for n in range(1, model.depth):
        if math.ldexp(1.0, -model.rule.term(n)) < distance:
            return n
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
    n = _bracket_level(model, d)
    va = eval_fn(model, n + 1, s)
    vb = eval_fn(model, n + 1, t)
    return model.coefficient(n + 1) * va.sub(vb).norm()


def check_pair(model: ContinuousModel, s: float, t: float) -> PairCheck:
    """Separation check: exact truncated distance against the gauge target."""
    if s == t:
        raise ValueError("pair must be two distinct points")
    d = abs(s - t)
    _bracket_level(model, d)  # propagate pair-too-close before evaluating
    lhs = _point(model, s).sub(_point(model, t)).norm()
    rhs = eval_psi_total(model.psi, d)
    return PairCheck(holds=lhs >= rhs - 1e-12, lhs=lhs, rhs=rhs)
