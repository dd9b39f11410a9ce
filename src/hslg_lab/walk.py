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
The window, `_window(params)`, covers the 4 gamma / tau^2 steps (gamma the
increment variance) a walk takes for its drift to show above its spread,
so a weakly drifting walk is not certified before it could still fall back.
`limiting_endpoint_pmf` certifies a batch of walks in row blocks of bounded
size.  Each block first draws a stretch sized from tau and epsilon, and only
the walks not yet certified draw more, so no walk is cut at a fixed length.
A walk that reaches `CAP` steps uncertified is flagged, never truncated
silently.

Since e^X is a ratio of independent Gammas, sigma(X) (sigma the logistic
function) is Beta(theta - alpha, theta + alpha).  The increment CDF is
therefore the closed form I_{sigma(x)}(theta - alpha, theta + alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, expit

from .rng import LANE_CHAIN, lane_keys, log_gamma_draws
from .special import ModelParams, constants

_U64 = np.uint64
_ROW_LANES = 1 << 18        # steps per row block of limiting_endpoint_pmf (memory only)
CAP = 200_000               # steps a walk may take before it is flagged uncertified
_MIN_WINDOW = 64            # shortest drift-line window of the certificate


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


def _window(params: ModelParams) -> int:
    """Drift-line window of the certificate: 4 gamma / tau^2 rounded up to
    a power of two, at least `_MIN_WINDOW` and at most `CAP`.

    At k = 4 gamma / tau^2 the half-drift margin (tau/2) k equals the
    spread sqrt(gamma k) of the centred walk; a shorter window lets a
    weakly drifting walk pass while it can still fall back.
    """
    c = constants(params)
    steps = 4.0 * c.walk_increment_var / c.increment_drift**2
    return min(CAP, max(_MIN_WINDOW, 1 << max(0, math.ceil(math.log2(steps)))))


@dataclass(frozen=True)
class LimitingPmf:
    """Partial sums S_r for r = 0..kmax and the series Q, one row per walk;
    the endpoint weights are `pmf` = e^{-S_r} / Q.

    Q = e^{-S_0} + .. + e^{-S_M}, added left to right.  A converged row's M
    is its first certified index and `tail_bound` = e^{-S_M} rho / (1 - rho)
    bounds the rest of its series.  A row that reached the cap has M = cap,
    the least bound seen over 0..cap, and `converged` False.
    """

    s: np.ndarray               # (walks, kmax + 1)
    q: np.ndarray
    m: np.ndarray
    tail_bound: np.ndarray
    converged: np.ndarray

    @property
    def pmf(self) -> np.ndarray:
        """(walks, kmax + 1) weights e^{-S_r} / Q."""
        with np.errstate(under="ignore"):
            return np.exp(-self.s) / self.q[:, None]


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
                          epsilon: float) -> LimitingPmf:
    """The limiting random endpoint pmf on 0..kmax for the walks `streams`.

    Each walk's Q is certified to a tail of at most `epsilon` with the
    drift-line window `_window(params)`, or flagged at `CAP` steps.  Walks
    go through in row blocks of about `_ROW_LANES` steps.  A block
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
    window = _window(params)
    streams = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    tau = constants(params).increment_drift
    block = _first_block(tau, epsilon, window, CAP)
    first = max(kmax, block)
    rows = max(1, _ROW_LANES // (first + 1))
    parts = [_certify(params, seed, streams[lo: lo + rows], kmax, epsilon,
                      window, CAP, block, first)
             for lo in range(0, streams.size, rows)]
    return LimitingPmf(*(np.concatenate(f) for f in zip(*parts)))


def _certify(params, seed, streams, kmax, epsilon, window, cap, block, first):
    """(S_0..S_kmax, Q, M, tail bound, converged) for one row block of walks."""
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
    return head, q, m, tail, conv
