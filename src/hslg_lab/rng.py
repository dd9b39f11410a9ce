"""Counter-based random number generation.

Every random quantity in the package is a pure function of
(algorithm id, master seed, stream index, lane, draw index).  There is no
mutable generator state shared between lattice sites, so weight fields come
out identical regardless of evaluation order, batch shape, or thread count.

Algorithm ``sm64chain-2`` (`ALGORITHM_ID`).  Words: chain the splitmix64
finalizer ``mix`` over the key material, then walk a per-lane splitmix64
subsequence:

    lane_key(seed, stream, lane) = mix(mix(mix(seed ^ 0x5851F42D4C957F2D) ^ stream) ^ lane)
    word(seed, stream, lane, q)  = mix(lane_key + q * 0x9E3779B97F4A7C15)
    uniform = ((word >> 11) + 0.5) * 2**-53        in (0, 1)

Weight lanes are lattice site codes; path codes, walk increments, bootstrap
draws and the tail draws of the walk series use lanes offset by the
namespace constants below so they can never collide.
Three frozen test vectors are listed in tests/test_rng.py.

Gammas: Marsaglia-Tsang rounds (Marsaglia & Tsang, "A simple method for
generating gamma variables", ACM TOMS 2000), each on a normal from a
256-layer ziggurat (Marsaglia & Tsang, "The ziggurat method for
generating random variables", J. Stat. Softw. 2000).  Slot 0 holds the
boost uniform for shapes below 1, and round r reads four slots: A = 1+4r
(layer, sign and abscissa), B = 2+4r and C = 3+4r (the wedge height, or
the tail pair), D = 4+4r (the acceptance uniform).  ``sm64chain-1`` had
the same words and drew a Box-Muller normal from three slots per round.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

ALGORITHM_ID = "sm64chain-2"

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
LANE_BOOTSTRAP = 1 << 49
LANE_TAIL = 1 << 60        # the two tail gammas of each walk's series Q

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


def _words_into(keys, q, w, tmp):
    """The q-th word of each lane into the uint64 array `w`; `tmp` is uint64
    scratch of the same shape."""
    np.add(keys, _u64(q * _GOLDEN_INT), out=w)
    return _mix(w, tmp)


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


_Ziggurat = namedtuple("_Ziggurat", "x width ratio height")


def _ziggurat_tables(r, v):
    """The 256-layer ziggurat under f(x) = exp(-x*x/2), x >= 0, of layer area v.

    x[1] = r, each x[i+1] makes layer i, the box [0, x[i]] x [f(x[i]),
    f(x[i+1])], of area v, and x[256] = 0 tops the last layer.  Layer 0 is
    the strip [0, r] x [0, f(r)] plus the tail's exponential envelope
    f(r) exp(-r (x - r)) of area f(r)/r, so x[0] = v/f(r) = r + 1/r.
    Returns x, the signed widths x[i] (entry i) and -x[i] (entry 256 + i),
    the rectangle ratios x[i+1]/x[i] at the same entries, and f(x).
    """
    x = [v / math.exp(-0.5 * r * r), r]
    for _ in range(254):
        x.append(math.sqrt(-2.0 * math.log(math.exp(-0.5 * x[-1] ** 2) + v / x[-1])))
    x = np.array(x + [0.0])
    width = x[:256]
    return _Ziggurat(x, np.concatenate([width, -width]), np.tile(x[1:] / width, 2),
                     np.exp(-0.5 * x * x))


# r and v close the 256 layers (the top layer's area is v too), solved in
# 60-digit arithmetic.  They differ from Marsaglia and Tsang's
# r = 3.6541528853610088, whose base layer holds the tail itself: a tail
# rejection here rejects the whole round, so layer 0 must hold the
# envelope the tail draw is thinned from, or tails come 6.2% too rarely.
_ZIG_R = 3.6554204190269415
_ZIG_V = 0.004928760963486943
_ZIG = _ziggurat_tables(_ZIG_R, _ZIG_V)


def _ziggurat_normals(keys, q, z, entry, scratch):
    """Standard normals from slots q (A), q+1 (B) and q+2 (C) into `z`.

    Word A gives the layer (bits 0-7), the sign (bit 8) and the abscissa
    uniform u (bits 11-63).  Inside the layer's rectangle, u < ratio, the
    normal is u times the signed width: two table lookups.  The other lanes
    are gathered once by flat index.  In a wedge, B places a height in the
    layer's band, kept under f; in layer 0 beyond r, B and C draw the
    exponential tail r + e with e = -log(B)/r, kept if -2 log(C) > e*e.
    A lane the ziggurat rejects holds -inf, so the round rejects it.
    `entry` (int64, the table entry: layer plus 256 for a negative sign)
    and `scratch` (float) are scratch of keys' shape; z's uint64 view holds
    word A.
    """
    w, tmp = z.view(np.uint64), entry.view(np.uint64)
    _words_into(keys, q, w, tmp)
    np.bitwise_and(w, _U64(511), out=tmp)
    _to_unit(w, z)
    outside = z >= np.take(_ZIG.ratio, entry, out=scratch)
    z *= np.take(_ZIG.width, entry, out=scratch)
    idx = np.flatnonzero(outside)
    if idx.size == 0:
        return z
    flat_keys, layer = keys.reshape(-1)[idx], np.take(entry, idx) & 255
    x = np.abs(np.take(z, idx))
    ub = uniforms(flat_keys, q + 1)
    lo = _ZIG.height[layer]
    keep = lo + ub * (_ZIG.height[layer + 1] - lo) < np.exp(-0.5 * x * x)
    tail = np.flatnonzero(layer == 0)
    if tail.size:
        r = _ZIG.x[1]
        e = -np.log(ub[tail]) / r
        keep[tail] = -2.0 * np.log(uniforms(flat_keys[tail], q + 2)) > e * e
        x[tail] = r + e
    z.reshape(-1)[idx] = np.where(keep, np.copysign(x, np.take(z, idx)), -np.inf)
    return z


def _mt_round(keys, d, c, q, out=None):
    """One Marsaglia-Tsang round on every lane: (rejected, log(d*v)).

    `d` and `c` broadcast against `keys`; the round reads slots q .. q+3:
    the ziggurat normal z from q .. q+2 and the acceptance uniform u3 from
    q+3.  log(d*v) goes to `out` (new if None); rejected lanes hold 0.
    """
    # all scratch in one allocation; u3 holds the table entries until it
    # is written
    z, u3, gap = np.empty((3,) + keys.shape)
    _ziggurat_normals(keys, q, z, u3.view(np.int64), gap)
    # v = (1 + c z)**3, by two products
    v = np.multiply(c, z, out=np.empty(keys.shape) if out is None else out)
    v += 1.0
    v *= np.multiply(v, v, out=gap)
    _to_unit(_words_into(keys, q + 3, u3.view(np.uint64), gap.view(np.uint64)), u3)
    # the squeeze, u3 < 1 - 0.0331 (z*z)**2
    np.multiply(z, z, out=gap)
    gap *= gap
    gap *= 0.0331
    np.subtract(1.0, gap, out=gap)
    accept = u3 < gap
    ok = v > 0.0
    accept &= ok
    # the lanes the squeeze leaves open, gathered once by flat index
    idx = np.flatnonzero(np.logical_and(ok, ~accept, out=ok))
    if idx.size:
        vf, zf = np.take(v, idx), np.take(z, idx)
        df = _gather(d, keys.shape, idx)
        accept.reshape(-1)[idx] = (np.log(np.take(u3, idx))
                                   < 0.5 * zf * zf + df * (1.0 - vf + np.log(vf)))
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
                                _gather(c, keys.shape, todo), 1 + 4 * r)
        accepted = ~rejected
        flat_out[todo[accepted]] = x[accepted]
        todo = todo[rejected]
    if todo.size:
        raise RuntimeError("gamma rejection sampler failed to terminate")

    boosted = shape < 1.0
    if boosted.any():
        todo = np.flatnonzero(np.broadcast_to(boosted, keys.shape))
        ub = uniforms(keys.reshape(-1)[todo], 0)
        np.log(ub, out=ub)
        ub /= _gather(shape, keys.shape, todo)
        flat_out[todo] += ub


def log_gamma_draws(shape, keys):
    """log of Gamma(shape, 1) draws, one per key, in the keys' shape.

    Squeeze/accept-reject (Marsaglia-Tsang): per round draw a ziggurat
    normal z (`_ziggurat_normals`) and one acceptance uniform u3.  Shapes
    below 1 are boosted through shape+1 and corrected by u**(1/shape),
    applied in log space so tiny shapes cannot underflow.  Each lane
    consumes only its own subsequence (slot 0 reserved for the boost
    uniform, round r uses slots 1+4r..4+4r, for at most `_MAX_ROUNDS`
    rounds), hence batching and retries of other lanes never shift a
    lane's draws.  A ziggurat rejection rejects the whole round, so every
    round is an independent trial and the law stays exact.

    Round 0 runs densely over every lane, with no gather: the constants
    d and c keep the shape's own broadcastable form, so a scalar shape
    keeps them scalar.  Only the few lanes it rejects are gathered for
    the later rounds.  In each round (1 + c z)**3 is two products, the
    squeeze ``u3 < 1 - 0.0331 (z*z)**2`` decides almost every lane, and
    the full log-acceptance test runs only on the lanes the squeeze leaves
    open, gathered once by flat index and written back through the same
    index.  The boost correction runs on the boosted lanes alone, gathered
    the same way, even when every lane is boosted.  Large key arrays go
    through in blocks of whole rows of about `_BLOCK_LANES` lanes, which
    keeps the temporaries in cache.
    Every lane goes through the same float operations as in a lane-by-lane
    loop, so the draws are bit for bit independent of batch shape.
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
