"""Model parameters and the constants built from digamma and trigamma.

The polymer's limit laws are governed by digamma/trigamma values at
theta + alpha and theta - alpha, computed here in 40-digit decimal: the
recurrence moves x past `_SHIFT`, where the asymptotic series through B_20
is off by under 1e-36, so the floats are correctly rounded even at psi's
root near 1.4616.  Tests check them against scipy and independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

_SHIFT = 60
# (numerator, denominator) of the Bernoulli numbers B_2, B_4, .., B_20
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))


def _polygamma(order: int, x: float) -> float:
    """psi (order 0) or psi' (order 1) at x > 0, correctly rounded."""
    with localcontext(Context(prec=40)):
        y, shifted = Decimal(x), Decimal(0)
        while y < _SHIFT:       # psi(y) = psi(y+1) - 1/y, psi'(y) = psi'(y+1) + 1/y^2
            shifted += 1 / y ** (order + 1)
            y += 1
        b = enumerate((Decimal(p) / q for p, q in _BERNOULLI), 1)
        if order == 0:
            return float(y.ln() - 1 / (2 * y) - shifted
                         - sum(t / (2 * k * y ** (2 * k)) for k, t in b))
        return float(1 / y + 1 / (2 * y * y) + shifted
                     + sum(t / y ** (2 * k + 1) for k, t in b))


def digamma(x: float) -> float:
    return _polygamma(0, x)


def trigamma(x: float) -> float:
    return _polygamma(1, x)


@dataclass(frozen=True)
class ModelParams:
    """Weight-law parameters: diagonal shape theta + alpha, bulk shape 2 theta.

    The bound phase means alpha < 0; all drift formulas below assume it.
    """

    theta: float
    alpha: float

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")
        if not (-self.theta < self.alpha < 0.0):
            raise ValueError("alpha must lie in (-theta, 0) (bound phase)")

    @property
    def shape_diag(self) -> float:
        return self.theta + self.alpha

    @property
    def shape_bulk(self) -> float:
        return 2.0 * self.theta

    @property
    def shape_boundary(self) -> float:
        """First-row shape of the stationary variant."""
        return self.theta - self.alpha


@dataclass(frozen=True)
class Constants:
    """Derived drift/variance constants for given (theta, alpha)."""

    free_energy_rate: float       # R: diagonal growth rate of log Z
    increment_drift: float        # tau: mean of one walk increment, > 0
    clt_variance: float           # sigma^2 in the Gaussian fluctuation law


def constants(params: ModelParams) -> Constants:
    a, b = params.theta + params.alpha, params.theta - params.alpha
    psi_a, psi_b = digamma(a), digamma(b)
    tri_a, tri_b = trigamma(a), trigamma(b)
    return Constants(
        free_energy_rate=-psi_a - psi_b,
        increment_drift=psi_b - psi_a,
        clt_variance=tri_a - tri_b,
    )


def _psi_gap(params: ModelParams) -> float:
    """psi(theta) - (psi(theta + alpha) + psi(theta - alpha)) / 2."""
    return digamma(params.theta) - 0.5 * (
        digamma(params.theta + params.alpha) + digamma(params.theta - params.alpha))


def delta_k(params: ModelParams, k: int) -> float:
    """Excess of the k-layer averaged growth rate over its comparison value.

    delta_k = psi(theta) - (psi(theta+alpha) + psi(theta-alpha))/2 - log(2)/(2k),
    increasing in k with a positive limit (strict concavity of psi).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gap = _psi_gap(params)
    return gap - math.log(2.0) / (2.0 * k)


def k_star(params: ModelParams) -> int:
    """Smallest k >= 1 with delta_k > 0 (finite for every bound-phase point)."""
    gap = _psi_gap(params)
    # gap > 0 strictly; delta_k > 0 iff k > log 2 / (2 gap)
    k = int(math.floor(math.log(2.0) / (2.0 * gap))) + 1
    return max(k, 1)
