"""Point-to-point partition functions on the wedge and the endpoint law.

The recurrence, with W the environment weights:

    Z(1,1) = W(1,1)
    Z(i,i) = W(i,i) * Z(i, i-1)                      on the diagonal
    Z(i,j) = W(i,j) * (Z(i-1,j) + Z(i,j-1))          for i > j >= 1

Z(i, j) sums weight products over upright paths from (1,1) confined to
j <= i.  `sweep` is the one implementation of this up/left recurrence in
the package: it streams anti-diagonals over any region whose cells on each
line i + j = s form one run of columns, in one of two semirings.
`sweep_region` feeds it a region of one environment's weights, `collect`
stores what it returns as a table.  Here they run on the wedge, in
`multilayer` on symmetrized quadrants and below the diagonal.  log Z grows
linearly in the size, so the float path works in the log domain throughout
(raw products overflow binary64 around size 150).  The exact path carries
Fractions and is meant for small verification instances only.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

from . import rng
from .environment import Environment, stream_log_weights
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
            with np.errstate(under="ignore"):   # a far-smaller term adds 0
                z = times(w, plus(ext[..., 1:], ext[..., :-1]))
        yield lo, z
        prev, prev_lo = z, lo


def diagonal_profiles(swept, n: int, sizes, short: int) -> np.ndarray:
    """Profiles of several sizes off one batched sweep to 2n from s = 2.

    The size-N profile is diagonal 2N: site codes and shapes do not depend
    on the size, so it is bit for bit the last diagonal of a sweep to 2N.
    Its N - `short` columns are reversed, to run from the diagonal outward,
    and the blocks of `sizes` (default (n,)) sit side by side in that order
    in one (streams, columns) array.  `sizes` must increase strictly, from
    above `short` to n.
    """
    sizes = (n,) if sizes is None else tuple(sizes)
    if list(sizes) != sorted(set(sizes)) or sizes[0] <= short or sizes[-1] != n:
        raise ValueError(f"sizes must increase strictly from {short + 1} to n = {n}, "
                         f"got {list(sizes)}")
    # diagonal 2N -> the column after size N's block
    ends = dict(zip([2 * m for m in sizes],
                    np.cumsum([m - short for m in sizes]).tolist()))
    out = None
    for s, (_, z) in enumerate(swept, 2):
        if s in ends:
            if out is None:
                out = np.empty(z.shape[:-1] + (ends[2 * n],))
            out[..., ends[s] - z.shape[-1]:ends[s]] = z[..., ::-1]
    return out


def sweep_region(env, ring, first: int, bounds):
    """`sweep` over a region of the weights of `env` (an `Environment` or a
    `SymmetrizedEnvironment`); yields (i, j, z) per diagonal.

    Diagonal s = first, first + 1, ... covers the columns bounds(s) = (lo,
    hi), its weights lifted to `ring` (exactly: binary64 is dyadic).  The
    sweep stops at the first empty diagonal and at the wedge boundary
    i + j = 2n: past it no cell has a weight or feeds one that has.
    """
    def diagonals():
        for s in range(first, 2 * env.n + 1):
            lo, hi = bounds(s)
            if lo > hi:
                return
            j = np.arange(lo, hi + 1)
            w = env.weights(s - j, j)
            yield lo, np.log(w) if ring is LOG else np.array(
                [Fraction(x) for x in w], dtype=object)

    for s, (lo, z) in enumerate(sweep(diagonals(), ring), first):
        j = np.arange(lo, lo + z.shape[-1])
        yield s - j, j, z


def collect(cells, ring, imax: int, jmax: int):
    """Swept cells as a table: a float [i, j] grid on [0..imax] x [0..jmax],
    -inf off the region, or an exact dict keyed (i, j), region cells only."""
    if ring is LOG:
        t = np.full((imax + 1, jmax + 1), NEG_INF)
        for i, j, z in cells:
            t[i, j] = z
        return t
    return {(a, b): v for i, j, z in cells
            for a, b, v in zip(i.tolist(), j.tolist(), z)}


def _wedge_table(env: Environment, ring):
    """Z on the wedge: diagonals s = 2..2n, columns 1..s//2, source (1,1)."""
    return collect(sweep_region(env, ring, 2, lambda s: (1, s // 2)),
                   ring, 2 * env.n - 1, env.n)


class PartitionTable:
    """Log partition values for every wedge site of one environment."""

    def __init__(self, env: Environment):
        self.n = env.n
        self.grid = _wedge_table(env, LOG)    # log Z(i, j) at [i, j], -inf off the wedge

    def final_profile(self) -> np.ndarray:
        """log Z(n+p, n-p) for p = 0..n-1."""
        p = np.arange(self.n)
        return self.grid[self.n + p, self.n - p]


def partition_table(env: Environment) -> PartitionTable:
    return PartitionTable(env)


def exact_partition_table(env: Environment) -> dict[tuple[int, int], Fraction]:
    """Fraction-valued table; exact because binary64 weights are dyadic."""
    return _wedge_table(env, EXACT)


def endpoint_pmf(table: PartitionTable) -> np.ndarray:
    """P(endpoint = (n+p, n-p)) for p = 0..n-1 under the quenched measure."""
    profile = table.final_profile()
    return np.exp(profile - logsumexp(profile))


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
    for step in range(2 * n - 2):
        bit = 2 * n - 3 - step  # moves recorded from the endpoint backwards
        u = rng.uniforms(keys, np.uint64(1 + step))
        up_logz = table.grid[np.maximum(i - 1, 1), j]
        left_logz = table.grid[i, np.maximum(j - 1, 1)]
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
                         streams, sizes=None) -> np.ndarray:
    """log Z(N+p, N-p), p = 0..N-1, for a batch of streams at once.

    Streams `sweep` to size n without materializing the n^2 weight field.
    Without `sizes` the result is the (streams, n) profile of size n; row b
    matches PartitionTable(generate_environment(..., stream=streams[b])) to
    rounding.  With `sizes`, increasing to n, it holds every size's profile,
    read off diagonal 2N of this one sweep (`diagonal_profiles`): N columns
    per size, side by side.  This is the workhorse of the large experiments.
    """
    diagonals = ((1, logw) for _, _, logw in stream_log_weights(
        params, n, flavor, seed, streams))
    return diagonal_profiles(sweep(diagonals, LOG), n, sizes, 0)
