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

Weight lanes are lattice site codes; path codes, walk increments and
bootstrap draws use lanes offset by the namespace constants below so they
can never collide.
Three frozen test vectors are listed in the README and tests/test_rng.py.
"""

from __future__ import annotations

import math

import numpy as np

ALGORITHM_ID = "sm64chain-1"

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_WHITEN = _U64(0x5851F42D4C957F2D)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)

# Lane namespaces.  Site codes stay far below 2**48.
LANE_CHAIN = 1 << 48       # sequential streams (path codes, walk increments)
LANE_BOOTSTRAP = 1 << 49


def _mix(z):
    """splitmix64 finalizer on uint64 values (wrapping is the point)."""
    with np.errstate(over="ignore"):
        z = z ^ (z >> _S30)
        z = z * _M1
        z = z ^ (z >> _S27)
        z = z * _M2
        return z ^ (z >> _S31)


def _u64(x):
    return _U64(int(x) & _MASK64)


def lane_keys(seed, stream, lanes):
    """Per-lane key array; broadcasts over `stream` and `lanes`."""
    h = _mix(np.atleast_1d(_u64(seed)) ^ _WHITEN)[0]
    stream_arr = np.asarray(stream, dtype=np.uint64)
    h2 = _mix(h ^ stream_arr)
    lane_arr = np.asarray(lanes, dtype=np.uint64)
    return _mix(np.asarray(h2 ^ lane_arr, dtype=np.uint64))


def words(keys, q):
    """q-th word of each lane subsequence (q scalar or array)."""
    q_arr = np.asarray(q, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix(keys + q_arr * _GOLDEN)


def uniforms(keys, q):
    """Uniform draws in the open interval (0, 1), one per key."""
    w = words(keys, q)
    return ((w >> _S11).astype(np.float64) + 0.5) * 2.0**-53


def dyadic_units(keys, q=0):
    """Exact dyadic rationals (k+1)/2**53 in (0, 1], one per key.

    Used by the verification environments: every value has a 53-bit
    significand, so Fraction conversion downstream is lossless and cheap.
    """
    w = words(keys, q)
    return ((w >> _S11).astype(np.float64) + 1.0) * 2.0**-53


def log_gamma_draws(shape, keys, q_base=0, max_rounds=128):
    """log of Gamma(shape, 1) draws, one per key, in the keys' shape.

    Squeeze/accept-reject (Marsaglia-Tsang): per round draw a Box-Muller
    normal from two uniforms plus one acceptance uniform.  Shapes below 1
    are boosted through shape+1 and corrected by u**(1/shape), applied in
    log space so tiny shapes cannot underflow.  Each lane consumes only its
    own subsequence (slot 0 reserved for the boost uniform, round r uses
    slots 1+3r..3+3r), hence batching and retries of other lanes never
    shift a lane's draws.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    shape_arr = np.broadcast_to(np.asarray(shape, dtype=float), keys.shape)
    if np.any(shape_arr <= 0.0):
        raise ValueError("gamma shape must be positive")
    boosted = shape_arr < 1.0
    d = np.where(boosted, shape_arr + 1.0, shape_arr) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    q0 = _u64(q_base)

    out = np.empty(keys.shape, dtype=float)
    flat_out = out.reshape(-1)
    flat_keys = keys.reshape(-1)
    flat_d = d.reshape(-1)
    flat_c = c.reshape(-1)
    pending = np.arange(flat_keys.size)
    for r in range(max_rounds):
        k = flat_keys[pending]
        base = q0 + _U64(1 + 3 * r)
        u1 = uniforms(k, base)
        u2 = uniforms(k, base + _U64(1))
        u3 = uniforms(k, base + _U64(2))
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        v = (1.0 + flat_c[pending] * z) ** 3
        ok = v > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            squeeze = u3 < 1.0 - 0.0331 * z**4
            full = np.log(u3) < 0.5 * z * z + flat_d[pending] * (1.0 - v + np.log(np.where(ok, v, 1.0)))
        accept = ok & (squeeze | full)
        idx = pending[accept]
        flat_out[idx] = np.log(flat_d[idx] * v[accept])
        pending = pending[~accept]
        if pending.size == 0:
            break
    else:
        raise RuntimeError("gamma rejection sampler failed to terminate")

    if boosted.any():
        bk = keys[boosted]
        ub = uniforms(bk, q0)
        out[boosted] += np.log(ub) / shape_arr[boosted]
    return out
