"""Weight environments on the half-quadrant wedge.

An environment of size n assigns one positive weight to every lattice site
(i, j) with 1 <= j <= i and i + j <= 2n (the wedge reachable by paths that
stay weakly below the diagonal and end on the anti-diagonal i + j = 2n).
Weights are inverse-gamma distributed; the three flavors differ only in the
shape parameter attached to a site class:

    standard             diagonal theta+alpha, bulk 2 theta
    stationary           first column theta-alpha (i >= 2), rest standard
    alpha-zero-diagonal  diagonal theta, bulk 2 theta

Everything is a pure function of (seed, stream, site), see `rng`.  Dyadic
environments replace the law by exact 53-bit dyadic rationals in (0, 1];
they exist so that exact-rational verification can share inputs with the
float path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import rng
from .special import ModelParams

FLAVORS = ("standard", "stationary", "alpha-zero-diagonal")

FORMAT_NAME = "HSLG-ENV"
FORMAT_VERSION = 1


def site_code(i, j):
    """Injective lattice-site code, independent of the environment size."""
    return (i - 1) * i // 2 + (j - 1)


def wedge_sites(n: int) -> Iterator[tuple[int, int]]:
    """Row-major enumeration of the size-n wedge."""
    for i in range(1, 2 * n):
        for j in range(1, min(i, 2 * n - i) + 1):
            yield (i, j)


def wedge_count(n: int) -> int:
    return n * n


def _lift(w: np.ndarray, shift) -> list[int]:
    """w * 2^shift as exact integers, elementwise (`shift` broadcasts).

    A weight with more than `shift` fraction bits raises ValueError: the
    lift never rounds.
    """
    out = []
    for x, sh in zip(w.tolist(), np.broadcast_to(shift, w.shape).tolist()):
        num, den = x.as_integer_ratio()
        bits = sh - (den.bit_length() - 1)
        if bits < 0:
            raise ValueError(f"weight {x!r} has more than {sh} fraction bits")
        out.append(num << bits)
    return out


def diag_sites(s: int):
    """(i, j) arrays of the wedge anti-diagonal i + j = s, j = 1..s//2."""
    j = np.arange(1, s // 2 + 1)
    return s - j, j


def site_shapes(params: ModelParams, flavor: str, i, j):
    """Gamma shape per site for the given flavor (arrays i, j broadcast)."""
    i = np.asarray(i)
    j = np.asarray(j)
    shapes = np.full(np.broadcast(i, j).shape, params.shape_bulk, dtype=float)
    diag = i == j
    shapes[diag] = params.shape_diag
    if flavor == "stationary":
        first = (j == 1) & (i >= 2)
        shapes[first] = params.shape_boundary
    elif flavor == "alpha-zero-diagonal":
        shapes[diag] = params.theta
    elif flavor != "standard":
        raise ValueError(f"unknown flavor {flavor!r}")
    return shapes


@dataclass
class Environment:
    """A realized weight field on the wedge, with its provenance."""

    params: ModelParams
    n: int
    flavor: str
    w: np.ndarray                 # row-major wedge order
    seed: int = 0
    stream: int = 0
    rng_id: str = rng.ALGORITHM_ID
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        counts = [min(i, 2 * self.n - i) for i in range(1, 2 * self.n)]
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        if self.w.shape != (wedge_count(self.n),):
            raise ValueError("weight array does not match the wedge size")

    def index(self, i, j):
        if not (1 <= j <= i and i + j <= 2 * self.n):
            raise KeyError(f"site ({i}, {j}) outside the wedge")
        return int(self._offsets[i - 1]) + (j - 1)

    def weight(self, i, j) -> float:
        return float(self.w[self.index(i, j)])

    def weights(self, i, j) -> np.ndarray:
        """Vectorized `weight` over index arrays of wedge sites (unchecked)."""
        return self.w[self._offsets[np.asarray(i) - 1] + (np.asarray(j) - 1)]

    def sites(self):
        return wedge_sites(self.n)

    @property
    def dyadic_scale(self) -> int:
        """1 + the largest denominator exponent of the weights: every weight,
        and every half weight, times 2^dyadic_scale is an integer."""
        return max(x.as_integer_ratio()[1].bit_length() for x in self.w.tolist())

    def dyadic_weights(self, i, j, scale: int) -> list[int]:
        """`weights` times 2^scale, as exact integers."""
        return _lift(self.weights(i, j), scale)


class SymmetrizedEnvironment:
    """Quadrant view of an environment: reflect across the diagonal and
    halve the diagonal weights.  Twice the (1,1)->(m,n) partition function
    of this view reproduces the wedge partition function exactly.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.n = env.n
        self.params = env.params

    def weight_fraction(self, i, j) -> Fraction:
        if i == j:
            return Fraction(self.env.weight(i, i)) / 2
        if j > i:
            i, j = j, i
        return Fraction(self.env.weight(i, j))

    @property
    def dyadic_scale(self) -> int:
        return self.env.dyadic_scale

    def weights(self, i, j) -> np.ndarray:
        """Symmetrized weights over index arrays of quadrant sites.

        Halving a normal binary64 value is exact; halving a subnormal one
        rounds, which `dyadic_weights` never does.
        """
        i, j = np.asarray(i), np.asarray(j)
        w = self.env.weights(np.maximum(i, j), np.minimum(i, j))
        return np.where(i == j, w / 2.0, w)

    def dyadic_weights(self, i, j, scale: int) -> list[int]:
        """`weight_fraction` times 2^scale over index arrays, as exact
        integers: a diagonal weight is lifted one bit less."""
        i, j = np.asarray(i), np.asarray(j)
        return _lift(self.env.weights(np.maximum(i, j), np.minimum(i, j)),
                     scale - (i == j))


def symmetrize(env: Environment) -> SymmetrizedEnvironment:
    return SymmetrizedEnvironment(env)


def generate_environment(params: ModelParams, n: int, flavor: str = "standard",
                         seed: int = 0, stream: int = 0) -> Environment:
    """Sample a full environment; weights are 1/Gamma(shape) per site class."""
    ij = np.array(list(wedge_sites(n)), dtype=np.int64)
    shapes = site_shapes(params, flavor, ij[:, 0], ij[:, 1])
    lanes = site_code(ij[:, 0], ij[:, 1])
    keys = rng.lane_keys(seed, stream, lanes.astype(np.uint64))
    w = np.exp(-rng.log_gamma_draws(shapes, keys))
    return Environment(params, n, flavor, w, seed=seed, stream=stream)


def generate_dyadic_environment(params: ModelParams, n: int,
                                seed: int = 0, stream: int = 0) -> Environment:
    ij = np.array(list(wedge_sites(n)), dtype=np.int64)
    lanes = site_code(ij[:, 0], ij[:, 1])
    keys = rng.lane_keys(seed, stream, lanes.astype(np.uint64))
    w = rng.dyadic_units(keys)
    return Environment(params, n, "standard", w, seed=seed, stream=stream)


def stream_log_weights(params: ModelParams, n: int, flavor: str,
                       seed: int, streams):
    """Yield (s, j, logw) per anti-diagonal s = 2..2n, batched over streams.

    `logw` has shape (len(streams), s//2); column order follows j = 1..s//2.
    Weight values agree bitwise with `generate_environment` for each stream
    (same per-site subsequences), but nothing of size n^2 is materialized,
    which is what makes the large batch experiments fit in memory.  Each
    diagonal's key array lives only through its draw, and the draws are
    negated in place, so one diagonal holds one array of its size across
    the yield.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    for s in range(2, 2 * n + 1):
        i, j = diag_sites(s)
        shapes = site_shapes(params, flavor, i, j)
        lanes = site_code(i, j).astype(np.uint64)
        logw = rng.log_gamma_draws(shapes[None, :],
                                   rng.lane_keys(seed, streams[:, None], lanes[None, :]))
        yield s, j, np.negative(logw, out=logw)


class EnvFormatError(ValueError):
    """Malformed environment file; carries the offending line and field."""

    def __init__(self, line_no: int, fieldname: str, message: str):
        super().__init__(f"line {line_no}: field {fieldname!r}: {message}")
        self.line_no = line_no
        self.field = fieldname


def write_environment(env: Environment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"format={FORMAT_NAME}\n")
        fh.write(f"version={FORMAT_VERSION}\n")
        fh.write(f"theta={env.params.theta:.17g}\n")
        fh.write(f"alpha={env.params.alpha:.17g}\n")
        fh.write(f"n={env.n}\n")
        fh.write(f"flavor={env.flavor}\n")
        fh.write(f"rng={env.rng_id}\n")
        fh.write(f"seed={env.seed}\n")
        fh.write(f"stream={env.stream}\n")
        for idx, (i, j) in enumerate(env.sites()):
            fh.write(f"{i} {j} {env.w[idx]:.17g}\n")
        fh.write("end\n")


def _header_value(lines, line_no, key):
    if line_no >= len(lines):
        raise EnvFormatError(line_no + 1, key, "unexpected end of file")
    line = lines[line_no].strip()
    prefix = key + "="
    if not line.startswith(prefix):
        raise EnvFormatError(line_no + 1, key, f"expected {prefix}..., got {line!r}")
    return line[len(prefix):]


def read_environment(path) -> Environment:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    if _header_value(lines, 0, "format") != FORMAT_NAME:
        raise EnvFormatError(1, "format", "not an HSLG-ENV file")
    if _header_value(lines, 1, "version") != str(FORMAT_VERSION):
        raise EnvFormatError(2, "version", "unsupported version")

    def parse(line_no, key, conv):
        raw = _header_value(lines, line_no, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise EnvFormatError(line_no + 1, key, str(exc)) from None

    theta = parse(2, "theta", float)
    alpha = parse(3, "alpha", float)
    n = parse(4, "n", int)
    if n < 1:
        raise EnvFormatError(5, "n", "n must be >= 1")
    flavor = _header_value(lines, 5, "flavor")
    if flavor not in FLAVORS:
        raise EnvFormatError(6, "flavor", f"unknown flavor {flavor!r}")
    rng_id = _header_value(lines, 6, "rng")
    seed = parse(7, "seed", int)
    stream = parse(8, "stream", int)
    for line_no, key, value in ((8, "seed", seed), (9, "stream", stream)):
        if not rng.in_u64(value, 1):
            raise EnvFormatError(line_no, key, f"{key} outside u64 range")

    try:
        params = ModelParams(theta, alpha)
    except ValueError as exc:
        raise EnvFormatError(3, "theta/alpha", str(exc)) from None

    base = 9
    # the header's n is refused before anything n^2-sized is built for it
    if len(lines) < base + wedge_count(n):
        raise EnvFormatError(len(lines) + 1, "site", "missing site line")
    w = np.empty(wedge_count(n), dtype=float)
    for idx, (i, j) in enumerate(wedge_sites(n)):
        line_no = base + idx
        parts = lines[line_no].split()
        if len(parts) != 3:
            raise EnvFormatError(line_no + 1, "site", "expected 'i j w'")
        try:
            fi, fj, fw = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise EnvFormatError(line_no + 1, "site", str(exc)) from None
        if (fi, fj) != (i, j):
            raise EnvFormatError(line_no + 1, "site",
                                 f"expected site ({i}, {j}), got ({fi}, {fj})")
        if not (fw > 0.0 and np.isfinite(fw)):
            raise EnvFormatError(line_no + 1, "site", "weight must be finite and positive")
        w[idx] = fw
    end_no = base + wedge_count(n)
    if end_no >= len(lines) or lines[end_no].strip() != "end":
        raise EnvFormatError(end_no + 1, "end", "missing 'end' terminator")

    return Environment(params, n, flavor, w, seed=seed, stream=stream, rng_id=rng_id)
