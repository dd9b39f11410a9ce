"""The log-gamma random walk and the random series Q it feeds.

One increment is X = log Y2 - log Y1 with Y1 ~ Gamma(theta + alpha) and
Y2 ~ Gamma(theta - alpha); in the bound phase its mean tau is positive, so
S_k = X_1 + .. + X_k drifts upward and Q = sum_{p >= 0} exp(-S_p) is a.s.
finite.  Q normalizes the limiting endpoint weights exp(-S_r) / Q.

Walk draws are counter-based: walk identity is (seed, stream) and increment
k consumes the two lanes LANE_CHAIN + 2k and LANE_CHAIN + 2k + 1, so any
stretch of a walk can be drawn on its own (`walk_increment_matrix` with
`start=`) and batches reproduce regardless of threading.

Q is summed left to right up to a certified index M of its own for each
walk: the first M where the walk stays above its half-drift line,
S_{M+j} >= S_M + (tau/2) j for j = 1..window, and e^{-S_M} rho / (1 - rho)
<= epsilon with rho = e^{-tau/2}, the geometric tail that line implies.
`limiting_endpoint_pmf` certifies a batch of walks in row blocks of bounded
size.  Each block first draws a stretch sized from tau and epsilon, and only
the walks not yet certified draw more, so no walk is cut at a fixed length.
A walk that reaches the cap uncertified is flagged, never truncated silently.

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
_ROW_LANES = 1 << 18        # steps per row block of limiting_endpoint_pmf (memory only)


def walk_increment_matrix(params: ModelParams, samples: int, n: int,
                          seed: int = 0, stream=0, *, start: int = 0) -> np.ndarray:
    """(samples, n) increments X_{start+1} .. X_{start+n}.

    Row s is the walk with stream `stream + s`, or with stream `stream[s]`
    when `stream` is an array of `samples` streams.
    """
    if n < 0:
        raise ValueError("increment count must be nonnegative")
    streams = np.asarray(stream, dtype=np.uint64)
    if streams.ndim == 0:
        streams = streams + np.arange(samples, dtype=np.uint64)
    elif streams.shape != (samples,):
        raise ValueError("need one stream per row")
    base = _U64(LANE_CHAIN) + _U64(2) * np.arange(start, start + n, dtype=np.uint64)
    k1 = lane_keys(seed, streams[:, None], base[None, :])
    k2 = lane_keys(seed, streams[:, None], base[None, :] + _U64(1))
    y1 = log_gamma_draws(params.theta + params.alpha, k1)
    y2 = log_gamma_draws(params.theta - params.alpha, k2)
    return y2 - y1


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


@dataclass(frozen=True)
class LimitingPmf:
    """Endpoint weights e^{-S_r} / Q for r = 0..kmax, one row per walk.

    Q = e^{-S_0} + .. + e^{-S_M}, added left to right.  A converged row's M
    is its first certified index and `tail_bound` = e^{-S_M} rho / (1 - rho)
    bounds the rest of its series.  A row that reached the cap has M = cap,
    the least bound seen over 0..cap, and `converged` False.  `risk` is
    `drift_risk` of the window, the one non-deterministic part of the
    certificate.
    """

    pmf: np.ndarray             # (walks, kmax + 1)
    q: np.ndarray
    m: np.ndarray
    tail_bound: np.ndarray
    converged: np.ndarray
    risk: float


def _first_block(tau: float, epsilon: float, window: int, cap: int) -> int:
    # the window plus twice the M at which the mean walk's bound
    # e^{-tau M} rho / (1 - rho) reaches epsilon; at most cap + window
    rho = math.exp(-0.5 * tau)
    m = max(0, math.ceil(2.0 * math.log(rho / (1.0 - rho) / epsilon) / tau))
    return min(window + m, cap + window)


def _sliding_min(a: np.ndarray, window: int) -> np.ndarray:
    """out[:, i] = min(a[:, i : i + window]), by doubling spans."""
    span = 1
    while 2 * span <= window:
        a = np.minimum(a[:, :-span], a[:, span:])
        span *= 2
    if span < window:
        a = np.minimum(a[:, :span - window], a[:, window - span:])
    return a


def limiting_endpoint_pmf(params: ModelParams, seed: int, streams, kmax: int,
                          epsilon: float, *, window: int = 64,
                          cap: int = 200_000) -> LimitingPmf:
    """The limiting random endpoint pmf on 0..kmax for the walks `streams`.

    Walks go through in row blocks of about `_ROW_LANES` steps.  A block
    draws `_first_block` steps (at least kmax) for every walk and checks
    the certificate at each index the window covers; the walks still open
    draw the next stretch, continuing their partial sums and Q from where
    they stopped.  Every sum runs left to right as over one whole walk, so
    no number depends on the blocking.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    risk = drift_risk(params, window)
    streams = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    tau = constants(params).increment_drift
    block = _first_block(tau, epsilon, window, cap)
    first = max(kmax, block)
    rows = max(1, _ROW_LANES // (first + 1))
    parts = [_certify(params, seed, streams[lo: lo + rows], kmax, epsilon,
                      window, cap, block, first)
             for lo in range(0, streams.size, rows)]
    pmf, q, m, tail, conv = (np.concatenate(f) for f in zip(*parts))
    return LimitingPmf(pmf, q, m, tail, conv, risk)


def _certify(params, seed, streams, kmax, epsilon, window, cap, block, first):
    """(pmf, Q, M, tail bound, converged) for one row block of walks."""
    n = streams.size
    half = 0.5 * constants(params).increment_drift
    rho = math.exp(-half)
    geom = rho / (1.0 - rho)
    q, tail = np.empty(n), np.empty(n)
    m, conv = np.empty(n, dtype=np.int64), np.zeros(n, dtype=bool)
    s = np.zeros((n, first + 1))
    np.cumsum(walk_increment_matrix(params, n, first, seed, streams),
              axis=1, out=s[:, 1:])
    head = s[:, :kmax + 1].copy()
    # open rows: their block indices, the Q partial sum and least bound so
    # far; s holds S_lo .. S_{lo + width - 1} of each
    idx, qsum, best = np.arange(n), np.zeros(n), np.full(n, np.inf)
    lo = 0
    with np.errstate(under="ignore"):       # deep partial sums: e^{-S} -> 0
        while True:
            width = s.shape[1]
            cand = min(width - window, cap + 1 - lo)
            # drift line A_k = S_k - (tau/2) k: M passes when A_M is at most
            # min A_{M+1..M+window}
            a = s - half * np.arange(lo, lo + width)
            ok = _sliding_min(a[:, 1:], window)[:, :cand] >= a[:, :cand]
            e = np.exp(-s[:, :cand])
            bound = e * geom
            best = np.minimum(best, bound.min(axis=1))
            good = ok & (bound <= epsilon)
            done = good.any(axis=1)
            j = good.argmax(axis=1)[done]
            csum = np.cumsum(np.concatenate([qsum[:, None], e], axis=1), axis=1)
            hit = idx[done]
            q[hit], m[hit] = csum[done, j + 1], lo + j
            tail[hit], conv[hit] = bound[done, j], True
            open_ = ~done
            if lo + cand > cap:             # flagged: Q through the cap
                rest = idx[open_]
                q[rest], m[rest], tail[rest] = csum[open_, cand], cap, best[open_]
                break
            if not open_.any():
                break
            idx, qsum, best = idx[open_], csum[open_, cand], best[open_]
            s = s[open_, cand:]
            drawn = lo + width - 1
            inc = walk_increment_matrix(params, idx.size,
                                        min(block, cap + window - drawn), seed,
                                        streams[idx], start=drawn)
            inc[:, 0] += s[:, -1]
            s = np.concatenate([s, np.cumsum(inc, axis=1)], axis=1)
            lo += cand
        pmf = np.exp(-head) / q[:, None]
    return pmf, q, m, tail, conv


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
