"""The log-gamma random walk and the random series it feeds.

One increment is X = log Y2 - log Y1 with Y1 ~ Gamma(theta + alpha) and
Y2 ~ Gamma(theta - alpha); in the bound phase its mean tau is positive, so
S_k = X_1 + .. + X_k drifts upward and Q = sum_{p >= 0} exp(-S_p) is a.s.
finite.  Q normalizes the limiting endpoint weights exp(-S_r) / Q.

Walk draws are counter-based: walk identity is (seed, stream) and increment
k consumes the two lanes LANE_CHAIN + 2k and LANE_CHAIN + 2k + 1, so a walk
can be extended deterministically (bit for bit) and batches reproduce
regardless of threading.

Since e^X is a ratio of independent Gammas, sigma(X) (sigma the logistic
function) is Beta(theta - alpha, theta + alpha).  The increment density and
CDF are therefore closed forms: the Beta density carried over to x, and
I_{sigma(x)}(theta - alpha, theta + alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaln, expit

from .rng import LANE_CHAIN, lane_keys, log_gamma_draws
from .special import ModelParams, constants

_U64 = np.uint64


@dataclass(frozen=True)
class WalkSample:
    """Partial sums S_0..S_n of one walk, with the key that extends it."""

    params: ModelParams
    values: np.ndarray
    seed: int
    stream: int

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def walk_increments(params: ModelParams, n: int, seed: int = 0,
                    stream: int = 0, start: int = 0) -> np.ndarray:
    """Increments X_{start+1} .. X_{start+n} of the walk keyed (seed, stream)."""
    if n < 0:
        raise ValueError("increment count must be nonnegative")
    idx = np.arange(start, start + n, dtype=np.uint64)
    base = _U64(LANE_CHAIN) + _U64(2) * idx
    k1 = lane_keys(seed, stream, base)
    k2 = lane_keys(seed, stream, base + _U64(1))
    y1 = log_gamma_draws(params.theta + params.alpha, k1)
    y2 = log_gamma_draws(params.theta - params.alpha, k2)
    return y2 - y1


def walk_increment_matrix(params: ModelParams, samples: int, n: int,
                          seed: int = 0, stream: int = 0) -> np.ndarray:
    """(samples, n) increments; row s is the walk with stream `stream + s`."""
    streams = np.asarray(stream, dtype=np.uint64) + np.arange(samples, dtype=np.uint64)
    base = _U64(LANE_CHAIN) + _U64(2) * np.arange(n, dtype=np.uint64)
    k1 = lane_keys(seed, streams[:, None], base[None, :])
    k2 = lane_keys(seed, streams[:, None], base[None, :] + _U64(1))
    y1 = log_gamma_draws(params.theta + params.alpha, k1)
    y2 = log_gamma_draws(params.theta - params.alpha, k2)
    return y2 - y1


def sample_walk(params: ModelParams, n: int, seed: int = 0,
                stream: int = 0) -> WalkSample:
    """Walk S_0 = 0, S_1, .., S_n."""
    inc = walk_increments(params, n, seed, stream)
    values = np.concatenate([[0.0], np.cumsum(inc)])
    return WalkSample(params, values, int(seed), int(stream))


def extend_walk(walk: WalkSample, n: int) -> WalkSample:
    """The same walk continued out to S_n (no-op when already long enough).

    The result is bitwise equal to `sample_walk(params, n, seed, stream)`:
    the new partial sums are accumulated left to right starting from the
    last value, exactly as the single cumsum in `sample_walk` adds them.
    """
    if n <= walk.n:
        return walk
    inc = walk_increments(walk.params, n - walk.n, walk.seed, walk.stream,
                          start=walk.n)
    tail = np.cumsum(np.concatenate([walk.values[-1:], inc]))[1:]
    values = np.concatenate([walk.values, tail])
    return WalkSample(walk.params, values, walk.seed, walk.stream)


# ---------------------------------------------------------------------------
# increment law


def increment_density(params: ModelParams, x):
    """Density of one walk increment, in log space; scalar or array.

    p(x) = e^{(theta-alpha) x} (1 + e^x)^{-2 theta} / B(theta-alpha, theta+alpha)
    """
    a, b = params.theta - params.alpha, params.theta + params.alpha
    v = np.asarray(x, dtype=float)
    logp = a * v - (a + b) * np.logaddexp(0.0, v) - betaln(a, b)
    with np.errstate(under="ignore"):
        out = np.exp(logp)
    if np.ndim(x) == 0:
        return float(out)
    return out


@lru_cache(maxsize=8)
def _cdf_table(theta: float, alpha: float) -> tuple[float, float]:
    # Beta shapes of the closed-form CDF; kept as the cached per-(theta,
    # alpha) setup step so callers that reset it (the benchmark's replay)
    # keep working
    return theta - alpha, theta + alpha


def increment_cdf(params: ModelParams, x):
    """CDF of one walk increment, I_{sigma(x)}(theta - alpha, theta + alpha)."""
    a, b = _cdf_table(params.theta, params.alpha)
    out = betainc(a, b, expit(np.asarray(x, dtype=float)))
    if np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# the series Q


@dataclass(frozen=True)
class QSeries:
    """Partial sums Q_0..Q_M with a certified (or flagged) truncation bound.

    `risk` is the Chebyshev bound on the chance that the drift line verified
    over the lookahead window is ever violated beyond it (the only
    non-deterministic part of the certificate); `converged` is False when no
    index up to the cap passed the window check at the requested epsilon.
    """

    partials: np.ndarray
    tail_bound: float
    converged: bool
    risk: float

    @property
    def q(self) -> float:
        return float(self.partials[-1])

    @property
    def m(self) -> int:
        return self.partials.size - 1


def drift_risk(params: ModelParams, window: int) -> float:
    """Bound on P(S_k < S_0 + (tau/2) k for some k >= window).

    Dyadic blocks [2^j, 2^{j+1}): a dip below the half-drift line inside a
    block forces the centered walk below -(tau/2) 2^j, whose probability the
    maximal inequality bounds by 8 gamma / (tau^2 2^j); summed over blocks
    from the first power of two >= window this is 16 gamma / (tau^2 2^j0).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    c = constants(params)
    tau, gamma = c.increment_drift, c.walk_increment_var
    block = 1 << max(0, math.ceil(math.log2(window)))
    return min(1.0, 16.0 * gamma / (tau**2 * block))


def q_partial(params: ModelParams, walk: WalkSample, epsilon: float, *,
              window: int = 64, cap: int = 200_000) -> QSeries:
    """Q_M with certified tail <= epsilon, or a flagged result at the cap.

    The certificate at M requires the lookahead drift check
    S_{M+j} >= S_M + (tau/2) j for j = 1..window together with the geometric
    bound sum_{j>=1} e^{-S_M - (tau/2) j} <= epsilon it then implies.  The
    walk is extended as needed; nothing is truncated silently.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    tau = constants(params).increment_drift
    rho = math.exp(-0.5 * tau)
    geom = rho / (1.0 - rho)

    best_bound = math.inf
    m_found = -1
    lo = 0
    while lo <= cap:
        hi = min(max(2 * lo, 1024), cap)
        walk = extend_walk(walk, hi + window)
        s = walk.values
        # drift line A_k = S_k - (tau/2) k: certificate at M is
        # min_{M < k <= M+window} A_k >= A_M
        a = s - 0.5 * tau * np.arange(s.size)
        ahead = np.full(hi + 1 - lo, np.inf)
        for j in range(1, window + 1):
            ahead = np.minimum(ahead, a[lo + j: hi + 1 + j])
        ok_drift = ahead >= a[lo: hi + 1]
        # deep partial sums underflow harmlessly: the bound only shrinks
        with np.errstate(under="ignore"):
            bound = np.exp(-s[lo: hi + 1]) * geom
        best_bound = min(best_bound, float(bound.min(initial=math.inf)))
        good = np.flatnonzero(ok_drift & (bound <= epsilon))
        if good.size:
            m_found = lo + int(good[0])
            break
        lo = hi + 1

    risk = drift_risk(params, window)
    with np.errstate(under="ignore"):
        if m_found < 0:
            s = walk.values[: cap + 1]
            partials = np.cumsum(np.exp(-s))
            return QSeries(partials, best_bound, False, risk)
        partials = np.cumsum(np.exp(-walk.values[: m_found + 1]))
        tail = float(np.exp(-walk.values[m_found]) * geom)
    return QSeries(partials, tail, True, risk)


@dataclass(frozen=True)
class LimitingPmf:
    """Endpoint weights e^{-S_r} / Q for r = 0..kmax, one quenched draw."""

    pmf: np.ndarray
    qseries: QSeries


def limiting_endpoint_pmf(params: ModelParams, walk: WalkSample, kmax: int,
                          epsilon: float = 1e-10) -> LimitingPmf:
    """The limiting random endpoint pmf on 0..kmax; flags ride on qseries."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    qs = q_partial(params, walk, epsilon)
    walk = extend_walk(walk, kmax)
    with np.errstate(under="ignore"):
        pmf = np.exp(-walk.values[: kmax + 1]) / qs.q
    return LimitingPmf(pmf, qs)


# ---------------------------------------------------------------------------
# appendix checks


@dataclass(frozen=True)
class MaximalBoundReport:
    steps: int
    empirical: float
    bound: float
    mc_sd: float

    @property
    def holds(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.mc_sd


def maximal_inequality_check(params: ModelParams, m: int, n: int, lam: float,
                             samples: int, seed: int = 0,
                             stream: int = 0) -> MaximalBoundReport:
    """Empirical P(min_{k <= m sqrt(n)} S_k <= -lam) against m sqrt(n) gamma / lam^2."""
    if m <= 0 or n <= 0 or lam <= 0.0 or samples <= 0:
        raise ValueError("arguments must be positive")
    steps = int(math.floor(m * math.sqrt(n)))
    gamma = constants(params).walk_increment_var
    bound = steps * gamma / lam**2
    inc = walk_increment_matrix(params, samples, steps, seed, stream)
    dips = np.cumsum(inc, axis=1).min(axis=1) <= -lam
    p_hat = float(dips.mean())
    mc_sd = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return MaximalBoundReport(steps, p_hat, bound, mc_sd)


@dataclass(frozen=True)
class DoubleLimitTable:
    """Tail-mass ratios sum_{r=k}^{n} e^{-S_r} / sum_{r=0}^{n} e^{-S_r}."""

    k_grid: tuple[int, ...]
    n_grid: tuple[int, ...]
    ratios: np.ndarray         # (samples, len(k_grid), len(n_grid))

    @property
    def means(self) -> np.ndarray:
        return self.ratios.mean(axis=0)

    def fraction_below(self, threshold: float) -> np.ndarray:
        return (self.ratios < threshold).mean(axis=0)


def double_limit_check(params: ModelParams, k_grid, n_grid, samples: int,
                       seed: int = 0, stream: int = 0) -> DoubleLimitTable:
    """Monte Carlo table of the tail ratios over a (k, n) grid."""
    k_grid = tuple(int(k) for k in k_grid)
    n_grid = tuple(int(n) for n in n_grid)
    if list(k_grid) != sorted(k_grid) or list(n_grid) != sorted(n_grid):
        raise ValueError("grids must be increasing")
    if min(k_grid) < 0 or min(n_grid) < 1 or max(k_grid) > max(n_grid):
        raise ValueError("need 0 <= k <= n")
    n_max = max(n_grid)
    inc = walk_increment_matrix(params, samples, n_max, seed, stream)
    s = np.concatenate([np.zeros((samples, 1)), np.cumsum(inc, axis=1)], axis=1)
    w = np.exp(-s)
    csum = np.cumsum(w, axis=1)
    ratios = np.empty((samples, len(k_grid), len(n_grid)))
    for a, k in enumerate(k_grid):
        head = csum[:, k - 1] if k > 0 else 0.0
        for b, n in enumerate(n_grid):
            if k > n:
                ratios[:, a, b] = 0.0
            else:
                total = csum[:, n]
                ratios[:, a, b] = (total - head) / total
    return DoubleLimitTable(k_grid, n_grid, ratios)
