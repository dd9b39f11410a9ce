"""The log-gamma random walk and the random series Q it feeds.

One increment is X = log Y2 - log Y1 with Y1 ~ Gamma(theta + alpha) and
Y2 ~ Gamma(theta - alpha); in the bound phase its mean tau is positive, so
S_k = X_1 + .. + X_k drifts upward and Q = sum_{p >= 0} exp(-S_p) is a.s.
finite.  Q normalizes the limiting endpoint weights exp(-S_r) / Q.

Walk draws are counter-based: walk identity is (seed, stream) and increment
k consumes the two lanes LANE_CHAIN + 2k and LANE_CHAIN + 2k + 1, so batches
reproduce regardless of threading and blocking.

Q is drawn exactly, with no truncation.  The rest of the series after any
K, Q' = sum_{p >= 0} e^{-(S_{K+p} - S_K)}, depends only on the increments
after K, so it is independent of S_0..S_K and has the law of Q, and
1/Q ~ Beta(-2 alpha, theta + alpha) by beta-gamma algebra (Dufresne,
Scand. Actuarial J. 1990; Vervaat, Adv. Appl. Probab. 1979, for
Q = 1 + e^{-X_1} Q').  So, with G_a ~ Gamma(-2 alpha) and
G_b ~ Gamma(theta + alpha) independent of the walk,

    Q = e^{-S_0} + .. + e^{-S_{K-1}} + e^{-S_K} (1 + G_b / G_a).

Each walk draws G_a and G_b on the lanes LANE_TAIL and LANE_TAIL + 1 of its
stream, which no increment reaches.  The sums run in log space, so neither
log Q nor log q1 = log(Q - 1) underflows.

Since e^X is a ratio of independent Gammas, sigma(X) (sigma the logistic
function) is Beta(theta - alpha, theta + alpha).  The increment CDF is
therefore the closed form I_{sigma(x)}(theta - alpha, theta + alpha),
which `special.beta_cdf_logit` evaluates from the logit x itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polymer import logsumexp
from .rng import LANE_CHAIN, LANE_TAIL, lane_keys, log_gamma_draws
from .special import ModelParams, beta_cdf_logit

_U64 = np.uint64
_ROW_LANES = 1 << 18        # steps per row block of limiting_endpoint_pmf (memory only)


def walk_increment_matrix(params: ModelParams, samples: int, n: int,
                          seed: int = 0, stream=0) -> np.ndarray:
    """(samples, n) increments X_1 .. X_n.

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
    base = _U64(LANE_CHAIN) + _U64(2) * np.arange(n, dtype=np.uint64)
    # each key array lives only through its own draw
    y1 = log_gamma_draws(params.theta + params.alpha,
                         lane_keys(seed, streams[:, None], base[None, :]))
    y2 = log_gamma_draws(params.theta - params.alpha,
                         lane_keys(seed, streams[:, None], base[None, :] + _U64(1)))
    return np.subtract(y2, y1, out=y2)


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
    out = beta_cdf_logit(a, b, x)
    if np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# the series Q


@dataclass(frozen=True)
class LimitingPmf:
    """Partial sums S_r for r = 0..K, log Q and log q1 = log(Q - 1), one row
    per walk; the endpoint weights are `pmf` = e^{-S_r} / Q."""

    s: np.ndarray               # (walks, K + 1)
    log_q: np.ndarray
    log_q1: np.ndarray

    @property
    def pmf(self) -> np.ndarray:
        """(walks, K + 1) weights e^{-S_r} / Q."""
        with np.errstate(under="ignore"):
            return np.exp(-self.s - self.log_q[:, None])


def limiting_endpoint_pmf(params: ModelParams, seed: int, streams,
                          kmax: int) -> LimitingPmf:
    """S_0 .. S_K with K = max(kmax, 1), and the exact Q and q1, for the
    walks `streams`.

    Walks go through in row blocks of about `_ROW_LANES` steps.  Every
    number of a walk is a function of its own lanes and of row-wise sums,
    so none depends on the blocking.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    k = max(kmax, 1)
    streams = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    rows = max(1, _ROW_LANES // (k + 1))
    parts = [_exact_q(params, seed, streams[lo: lo + rows], k)
             for lo in range(0, streams.size, rows)]
    return LimitingPmf(*(np.concatenate(f) for f in zip(*parts)))


def _exact_q(params, seed, streams, k):
    """(S_0..S_k, log Q, log q1) for one row block of walks."""
    s = np.zeros((streams.size, k + 1))
    np.cumsum(walk_increment_matrix(params, streams.size, k, seed, streams),
              axis=1, out=s[:, 1:])
    # log G_a and log G_b, Gamma(-2 alpha) and Gamma(theta + alpha)
    tail = _U64(LANE_TAIL) + np.arange(2, dtype=np.uint64)
    log_g = log_gamma_draws(np.array([-2.0 * params.alpha, params.theta + params.alpha]),
                            lane_keys(seed, streams[:, None], tail[None, :]))
    terms = -s[:, 1:]
    with np.errstate(under="ignore"):       # terms far below the largest
        terms[:, -1] += np.logaddexp(0.0, log_g[:, 1] - log_g[:, 0])
        log_q1 = logsumexp(terms, axis=1)
        return s, np.logaddexp(0.0, log_q1), log_q1
