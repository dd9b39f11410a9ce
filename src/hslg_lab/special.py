"""Digamma-family special functions and model constants.

The polymer's limit laws are governed by digamma/trigamma values at
theta + alpha and theta - alpha.  We keep our own implementations (shift
recurrence into the asymptotic regime, then a de Moivre tail) so that the
constants used across the package depend only on this module; library
versions appear in the test suite as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Shift threshold for the asymptotic series.  At x >= 10 the truncation
# error of the tails below is ~1e-15, comfortably inside the 1e-12 target.
_SHIFT = 10.0

# Bernoulli numbers B_2, B_4, ..., B_14.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(z):
    """Digamma function psi(z) for z > 0 (scalar or array).

    Small arguments are shifted up with psi(z) = psi(z+1) - 1/z, then the
    asymptotic expansion psi(x) ~ ln x - 1/(2x) - sum B_2k / (2k x^2k) is
    applied.  Absolute accuracy is ~1e-13 on (1e-3, 50].
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("digamma requires z > 0")
    scalar = z.ndim == 0
    x = np.atleast_1d(z).astype(float).copy()
    acc = np.zeros_like(x)
    while True:
        mask = x < _SHIFT
        if not mask.any():
            break
        acc[mask] -= 1.0 / x[mask]
        x[mask] += 1.0
    inv2 = 1.0 / (x * x)
    tail = np.zeros_like(x)
    power = inv2.copy()
    for k, b in enumerate(_BERNOULLI, start=1):
        tail += b / (2.0 * k) * power
        power *= inv2
    out = acc + np.log(x) - 0.5 / x - tail
    return float(out[0]) if scalar else out


def polygamma(k, z):
    """k-th derivative of digamma, k in 1..4, for z > 0 (scalar or array).

    Same shift-then-asymptotics scheme; accuracy ~1e-11 absolute.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("polygamma implemented for k in 1..4")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("polygamma requires z > 0")
    scalar = z.ndim == 0
    x = np.atleast_1d(z).astype(float).copy()
    acc = np.zeros_like(x)
    # psi^(k)(x) = psi^(k)(x+1) + (-1)^(k+1) k! / x^(k+1)
    sign_rec = (-1.0) ** (k + 1) * math.factorial(k)
    while True:
        mask = x < _SHIFT
        if not mask.any():
            break
        acc[mask] += sign_rec / x[mask] ** (k + 1)
        x[mask] += 1.0
    # Asymptotic: psi^(k)(x) ~ (-1)^(k-1) [ (k-1)!/x^k + k!/(2 x^(k+1))
    #             + sum_j B_2j (2j+k-1)!/(2j)! x^(-2j-k) ]
    series = math.factorial(k - 1) / x**k + math.factorial(k) / (2.0 * x ** (k + 1))
    inv2 = 1.0 / (x * x)
    power = 1.0 / x**k * inv2
    for j, b in enumerate(_BERNOULLI, start=1):
        coef = b * math.factorial(2 * j + k - 1) / math.factorial(2 * j)
        series += coef * power
        power *= inv2
    out = acc + (-1.0) ** (k - 1) * series
    return float(out[0]) if scalar else out


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
    walk_increment_var: float     # variance of one walk increment


def constants(params: ModelParams) -> Constants:
    a, b = params.theta + params.alpha, params.theta - params.alpha
    return Constants(
        free_energy_rate=-digamma(a) - digamma(b),
        increment_drift=digamma(b) - digamma(a),
        clt_variance=polygamma(1, a) - polygamma(1, b),
        walk_increment_var=polygamma(1, a) + polygamma(1, b),
    )


def diagonal_rate_alpha_zero(theta: float) -> float:
    """Growth rate -2 psi(theta): the alpha -> 0 limit of the diagonal rate."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    return -2.0 * digamma(theta)


def delta_k(params: ModelParams, k: int) -> float:
    """Excess of the k-layer averaged growth rate over its comparison value.

    delta_k = psi(theta) - (psi(theta+alpha) + psi(theta-alpha))/2 - log(2)/(2k),
    increasing in k with a positive limit (strict concavity of psi).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gap = digamma(params.theta) - 0.5 * (
        digamma(params.theta + params.alpha) + digamma(params.theta - params.alpha)
    )
    return gap - math.log(2.0) / (2.0 * k)


def k_star(params: ModelParams) -> int:
    """Smallest k >= 1 with delta_k > 0 (finite for every bound-phase point)."""
    gap = digamma(params.theta) - 0.5 * (
        digamma(params.theta + params.alpha) + digamma(params.theta - params.alpha)
    )
    # gap > 0 strictly; delta_k > 0 iff k > log 2 / (2 gap)
    k = int(math.floor(math.log(2.0) / (2.0 * gap))) + 1
    return max(k, 1)
