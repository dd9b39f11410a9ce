"""Point-to-point partition functions on the wedge and the endpoint law.

The recurrence, with W the environment weights:

    Z(1,1) = W(1,1)
    Z(i,i) = W(i,i) * Z(i, i-1)                      on the diagonal
    Z(i,j) = W(i,j) * (Z(i-1,j) + Z(i,j-1))          for i > j >= 1

Z(i, j) sums weight products over upright paths from (1,1) confined to
j <= i.  `sweep` is the one implementation of this up/left recurrence in
the package: it streams anti-diagonals over any region whose cells on each
line i + j = s form one run of columns, in one of two semirings.  Here it
runs on the wedge; `multilayer` runs it on symmetrized quadrants and below
the diagonal.  log Z grows linearly in the size, so the float path works in
the log domain throughout (raw products overflow binary64 around size 150).
The exact path carries Fractions and is meant for small verification
instances only.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

from . import rng
from .environment import Environment, diag_sites, stream_log_weights
from .special import ModelParams

NEG_INF = -np.inf

# Semirings for `sweep`: (plus, times, zero, dtype).  LOG runs on log
# weights, EXACT on numpy object arrays of Fractions.
LOG = (np.logaddexp, np.add, NEG_INF, float)
EXACT = (np.add, np.multiply, Fraction(0), object)

# Path codes pack 2n - 2 moves into int64 bits.
MAX_CODE_N = 32


def sweep(diagonals, ring):
    """Stream Z = W * (Z_up + Z_left) over anti-diagonals; yields (lo, z).

    `diagonals` yields (lo, w) per anti-diagonal s, where w[..., t] is the
    weight of cell (s - lo - t, lo + t); leading axes batch independent
    environments.  The first diagonal is the source, where z = w.  Cells
    outside the previous diagonal's j-range count as ring zero.
    """
    plus, times, zero, dtype = ring
    prev = prev_lo = None
    for lo, w in diagonals:
        if prev is None:
            z = w
        else:
            # ext[..., k] is the previous diagonal at column lo - 1 + k, so
            # the left neighbours are ext[..., :-1] and the up ones ext[..., 1:]
            width = w.shape[-1]
            ext = np.full(w.shape[:-1] + (width + 1,), zero, dtype=dtype)
            shift = prev_lo - lo + 1
            a, b = max(shift, 0), min(shift + prev.shape[-1], width + 1)
            if a < b:
                ext[..., a:b] = prev[..., a - shift:b - shift]
            z = times(w, plus(ext[..., 1:], ext[..., :-1]))
        yield lo, z
        prev, prev_lo = z, lo


def lift(w: np.ndarray, ring):
    """Positive float weights as elements of `ring` (exact: binary64 is dyadic)."""
    if ring is LOG:
        return np.log(w)
    return np.array([Fraction(x) for x in w], dtype=object)


def final(swept) -> np.ndarray:
    """The last diagonal of a sweep."""
    for _, z in swept:
        pass
    return z


def _wedge(env: Environment, ring):
    """Diagonals s = 2..2n of the wedge: columns 1..s//2, source (1,1)."""
    for s in range(2, 2 * env.n + 1):
        yield 1, lift(env.weights(*diag_sites(env.n, s)), ring)


class PartitionTable:
    """Log partition values for every wedge site of one environment."""

    def __init__(self, env: Environment):
        self.n = env.n
        self.diags: list[np.ndarray] = [z for _, z in sweep(_wedge(env, LOG), LOG)]

    def final_profile(self) -> np.ndarray:
        """log Z(n+p, n-p) for p = 0..n-1."""
        return self.diags[-1][::-1].copy()


def partition_table(env: Environment) -> PartitionTable:
    return PartitionTable(env)


def exact_partition_table(env: Environment) -> dict[tuple[int, int], Fraction]:
    """Fraction-valued table; exact because binary64 weights are dyadic."""
    z: dict[tuple[int, int], Fraction] = {}
    for s, (_, diag) in enumerate(sweep(_wedge(env, EXACT), EXACT), 2):
        for j, value in enumerate(diag, 1):
            z[s - j, j] = value
    return z


def endpoint_pmf(table: PartitionTable) -> np.ndarray:
    """P(endpoint = (n+p, n-p)) for p = 0..n-1 under the quenched measure."""
    profile = table.final_profile()
    return np.exp(profile - logsumexp(profile))


def increment_vector(table: PartitionTable, kmax: int) -> np.ndarray:
    """(log Z(n,n) - log Z(n+r, n-r)) for r = 0..kmax; entry 0 is 0."""
    profile = table.final_profile()
    if not 0 <= kmax < table.n:
        raise ValueError("kmax must lie in [0, n)")
    return profile[0] - profile[: kmax + 1]


def sample_path_codes(table: PartitionTable, count: int, seed: int, stream: int) -> np.ndarray:
    """Vectorized path sampling; returns one move-code per draw.

    A code packs the 2n - 2 moves of a path from (1,1), first move in the
    lowest bit, 1 for a step up (i + 1) and 0 for a step right (j + 1).

    Draw d consumes lane LANE_CHAIN + d, so the result is independent of
    batching.  Step q of every draw uses draw index q of its lane.
    """
    n = table.n
    if n > MAX_CODE_N:
        raise ValueError(f"path codes pack 2n-2 moves into int64; need n <= {MAX_CODE_N}")
    lanes = rng.LANE_CHAIN + np.arange(count, dtype=np.uint64)
    keys = rng.lane_keys(seed, stream, lanes)
    cum = np.cumsum(endpoint_pmf(table))
    u0 = rng.uniforms(keys, 0)
    p = np.minimum(np.searchsorted(cum, u0), n - 1)
    i = n + p
    j = n - p
    codes = np.zeros(count, dtype=np.int64)
    # log Z lookup grid (wedge sites only; -inf elsewhere never consulted)
    grid = np.full((2 * n + 1, n + 1), NEG_INF)
    for s, diag in enumerate(table.diags, 2):
        col = np.arange(1, diag.size + 1)
        grid[s - col, col] = diag
    for step in range(2 * n - 2):
        bit = 2 * n - 3 - step  # moves recorded from the endpoint backwards
        u = rng.uniforms(keys, np.uint64(1 + step))
        up_logz = grid[np.maximum(i - 1, 1), j]
        left_logz = grid[i, np.maximum(j - 1, 1)]
        forced_up = j == 1
        forced_left = i == j
        with np.errstate(over="ignore"):
            p_up = 1.0 / (1.0 + np.exp(left_logz - up_logz))
        go_up = np.where(forced_up, True, np.where(forced_left, False, u < p_up))
        codes |= go_up.astype(np.int64) << bit
        i = np.where(go_up, i - 1, i)
        j = np.where(go_up, j, j - 1)
    return codes


def batch_final_profiles(params: ModelParams, n: int, flavor: str, seed: int,
                         streams) -> np.ndarray:
    """log Z(n+p, n-p), p = 0..n-1, for a batch of streams at once.

    Streams `sweep` without materializing the n^2 weight field; row b of
    the result matches PartitionTable(generate_environment(..., stream=
    streams[b])) to rounding.  This is the workhorse of the large
    experiments.
    """
    diagonals = ((1, logw) for _, _, logw in stream_log_weights(
        params, n, flavor, seed, streams))
    return final(sweep(diagonals, LOG))[:, ::-1].copy()
