"""Counter-based random number generation.

Every random quantity in the package is a pure function of
(algorithm id, master seed, stream index, lane, draw index).  There is no
mutable generator state shared between lattice sites, so weight fields come
out identical regardless of evaluation order, batch shape, or thread count.

Algorithm ``sm64chain-1``: chain the splitmix64 finalizer ``mix`` over the
key material, then walk a per-lane splitmix64 subsequence:

    lane_key(seed, stream, lane) = mix(mix(mix(seed ^ 0x5851F42D4C957F2D) ^ stream) ^ lane)
    word(seed, stream, lane, q)  = mix(lane_key + q * 0x9E3779B97F4A7C15)
    uniform = ((word >> 11) + 0.5) * 2**-53        in (0, 1)

Weight lanes are lattice site codes; path codes, walk increments, boundary
weights and bootstrap draws use lanes offset by the namespace constants
below so they can never collide.
Three frozen test vectors are listed in tests/test_rng.py.
"""

from __future__ import annotations

import math

import numpy as np

ALGORITHM_ID = "sm64chain-1"

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = _U64(_GOLDEN_INT)
_WHITEN = _U64(0x5851F42D4C957F2D)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)

# Lane namespaces.  Site codes stay far below 2**48.
LANE_CHAIN = 1 << 48       # sequential streams (path codes, walk increments)
LANE_BOUNDARY = (1 << 49) - 1   # last chain lane: one boundary weight per stream
LANE_BOOTSTRAP = 1 << 49

_BLOCK_LANES = 1 << 16      # lanes per block of log_gamma_draws (speed only)
_MAX_ROUNDS = 128           # rejection rounds before log_gamma_draws gives up


def _mix(z, tmp=None):
    """splitmix64 finalizer, in place on the uint64 array `z` (wrapping is
    the point); `tmp` is uint64 scratch of the same shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _M2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _u64(x):
    return _U64(int(x) & _MASK64)


def in_u64(start: int, count: int) -> bool:
    """Whether start .. start + count - 1 lie in [0, 2**64), the seed and stream range."""
    return 0 <= start and start + count <= _MASK64 + 1


def lane_keys(seed, stream, lanes):
    """Per-lane key array; broadcasts over `stream` and `lanes`.  A seed
    outside [0, 2**64) raises ValueError rather than aliasing another."""
    if not in_u64(int(seed), 1):
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    h = _mix(np.atleast_1d(_U64(int(seed))) ^ _WHITEN)[0]
    h2 = _mix(np.asarray(h ^ np.asarray(stream, dtype=np.uint64)))
    return _mix(np.asarray(h2 ^ np.asarray(lanes, dtype=np.uint64)))[()]


def words(keys, q):
    """q-th word of each lane subsequence (q scalar or array)."""
    q_arr = np.asarray(q, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix(np.asarray(keys + q_arr * _GOLDEN))[()]


def _to_unit(w, out):
    """((w >> 11) + 0.5) * 2**-53 into `out`; shifts the uint64 array `w` in place."""
    w >>= _S11
    np.add(w, 0.5, out=out)
    out *= 2.0**-53
    return out


def uniforms(keys, q):
    """Uniform draws in the open interval (0, 1), one per key."""
    w = np.asarray(words(keys, q))
    return _to_unit(w, np.empty(w.shape))[()]


def dyadic_units(keys):
    """Exact dyadic rationals (k+1)/2**53 in (0, 1], one per key, from word 0.

    Used by the verification environments: every value has a 53-bit
    significand, so Fraction conversion downstream is lossless and cheap.
    """
    w = words(keys, 0)
    return ((w >> _S11).astype(np.float64) + 1.0) * 2.0**-53


def _squeeze(u3, z, gap=None):
    """Marsaglia-Tsang squeeze ``u3 < 1 - 0.0331 * z**4``, lane by lane.

    The bound is formed from products, 1 - 0.0331*(z2*z2) with z2 = z*z,
    because numpy's float64 power takes a slow path for a negative base.
    Uniforms are at least 2**-54, so |z| <= sqrt(108 ln 2) < 8.66 and
    0.0331*z**4 <= 186: the product bound is within a few ulps of 186,
    below 2e-13, of the ``z**4`` bound (8.5e-14 is the largest difference
    seen).  Lanes whose u3 lies within 1e-12 of the product bound are
    decided again with the ``z**4`` expression; on every other lane the
    two bounds are on the same side of u3.  So each decision is the one
    the power form gives.  `gap` is optional float scratch of z's shape.
    """
    gap = np.multiply(z, z, out=gap)
    gap *= gap
    gap *= 0.0331
    np.subtract(1.0, gap, out=gap)
    np.subtract(u3, gap, out=gap)
    accept = gap < 0.0
    near = np.abs(gap, out=gap) <= 1e-12
    if near.any():
        accept[near] = u3[near] < 1.0 - 0.0331 * z[near] ** 4
    return accept


def _mt_round(keys, d, c, q, out=None):
    """One Marsaglia-Tsang round on every lane: (rejected, log(d*v)).

    `d` and `c` broadcast against `keys`; the round reads slots q, q+1 and
    q+2.  log(d*v) goes to `out` (new if None); rejected lanes hold 0.
    """
    # all scratch in one allocation; gap and u3 serve as word scratch
    # until they are written
    z, u3, gap = np.empty((3,) + keys.shape)
    w, tmp = gap.view(np.uint64), u3.view(np.uint64)

    def draw(slot, into):
        np.add(keys, _u64(slot * _GOLDEN_INT), out=w)
        return _to_unit(_mix(w, tmp), into)

    z = draw(q, z)
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    v = draw(q + 1, np.empty(keys.shape) if out is None else out)
    v *= 2.0 * math.pi
    np.cos(v, out=v)
    z *= v
    np.multiply(c, z, out=v)
    v += 1.0
    np.power(v, 3.0, out=v)
    draw(q + 2, u3)
    accept = _squeeze(u3, z, gap)
    ok = v > 0.0
    accept &= ok
    full = np.logical_and(ok, ~accept, out=ok)
    if full.any():
        vf = v[full]
        zf = z[full]
        df = np.broadcast_to(d, keys.shape)[full]
        accept[full] = np.log(u3[full]) < 0.5 * zf * zf + df * (1.0 - vf + np.log(vf))
    v *= d
    rejected = np.logical_not(accept, out=accept)
    v[rejected] = 1.0
    return rejected, np.log(v, out=v)


def _gather(a, shape, flat_index):
    """Entries `flat_index` of `a` broadcast to `shape`; a scalar stays one."""
    return a if a.ndim == 0 else np.broadcast_to(a, shape).flat[flat_index]


def _draw_block(keys, shape, d, c, out):
    """`log_gamma_draws` on one block of keys, into the contiguous array
    `out`; the other arrays broadcast against the keys."""
    rejected, _ = _mt_round(keys, d, c, 1, out)
    flat_out = out.reshape(-1)
    todo = np.flatnonzero(rejected)
    for r in range(1, _MAX_ROUNDS):
        if todo.size == 0:
            break
        rejected, x = _mt_round(keys.reshape(-1)[todo], _gather(d, keys.shape, todo),
                                _gather(c, keys.shape, todo), 1 + 3 * r)
        accepted = ~rejected
        flat_out[todo[accepted]] = x[accepted]
        todo = todo[rejected]
    if todo.size:
        raise RuntimeError("gamma rejection sampler failed to terminate")

    boosted = shape < 1.0
    if boosted.all():
        ub = uniforms(keys, 0)
        np.log(ub, out=ub)
        ub /= shape
        out += ub
    elif boosted.any():
        todo = np.flatnonzero(np.broadcast_to(boosted, keys.shape))
        ub = uniforms(keys.reshape(-1)[todo], 0)
        flat_out[todo] += np.log(ub) / _gather(shape, keys.shape, todo)


def log_gamma_draws(shape, keys):
    """log of Gamma(shape, 1) draws, one per key, in the keys' shape.

    Squeeze/accept-reject (Marsaglia-Tsang): per round draw a Box-Muller
    normal from two uniforms plus one acceptance uniform.  Shapes below 1
    are boosted through shape+1 and corrected by u**(1/shape), applied in
    log space so tiny shapes cannot underflow.  Each lane consumes only its
    own subsequence (slot 0 reserved for the boost uniform, round r uses
    slots 1+3r..3+3r, for at most `_MAX_ROUNDS` rounds), hence batching and
    retries of other lanes never shift a lane's draws.

    Round 0 runs densely over every lane, with no gather: the constants
    d and c keep the shape's own broadcastable form, so a scalar shape
    keeps them scalar.  Only the few lanes it rejects are gathered for
    the later rounds.  In each round the squeeze decides almost every
    lane (`_squeeze`: a product-form bound within 2e-13 of the ``z**4``
    one, and a 1e-12 guard band re-decided with ``z**4``, so every
    decision is that of ``z**4``), and the full log-acceptance test runs
    only on the lanes the squeeze leaves open.  The boost
    correction runs densely when every lane is boosted.  Large key arrays
    go through in blocks of whole rows of about `_BLOCK_LANES` lanes, which
    keeps the temporaries in cache.  Every lane goes through the same
    float operations as in a lane-by-lane loop, so the draws are bit for
    bit independent of batch shape.
    """
    keys = np.asarray(keys, dtype=np.uint64, order="C")
    shape = np.asarray(shape, dtype=float)
    np.broadcast_to(shape, keys.shape)      # the shapes must fit the keys
    out_shape, keys = keys.shape, np.atleast_1d(keys)
    if np.any(shape <= 0.0):
        raise ValueError("gamma shape must be positive")
    d = np.where(shape < 1.0, shape + 1.0, shape) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)

    def rows(a, part):
        # the part of `a` that broadcasts against keys[part]
        return a[part] if a.ndim == keys.ndim and a.shape[0] > 1 else a

    out = np.empty(keys.shape)
    step = max(1, _BLOCK_LANES // max(1, math.prod(keys.shape[1:])))
    for lo in range(0, keys.shape[0], step):
        part = slice(lo, lo + step)
        _draw_block(keys[part], rows(shape, part), rows(d, part), rows(c, part),
                    out[part])
    return out.reshape(out_shape)
