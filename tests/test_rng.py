"""Counter-based RNG: frozen vectors, pure-integer oracle, draw quality.

The oracle below re-implements the chain with plain Python integers, so a
silent change to the numpy uint64 arithmetic (casts, overflow handling,
constants) cannot slip through.
"""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats
from scipy.special import digamma as sc_digamma, polygamma as sc_polygamma

from hslg_lab import rng, stats
from hslg_lab.environment import generate_environment
from hslg_lab.special import ModelParams
from hslg_lab.stats import SIGNIFICANCE

from oracles import gather_log_gamma_draws

M64 = (1 << 64) - 1


def mix_int(z: int) -> int:
    z &= M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def lane_key_int(seed: int, stream: int, lane: int) -> int:
    h = mix_int((seed & M64) ^ 0x5851F42D4C957F2D)
    h = mix_int(h ^ (stream & M64))
    return mix_int(h ^ (lane & M64))


def word_int(seed: int, stream: int, lane: int, q: int) -> int:
    return mix_int((lane_key_int(seed, stream, lane) + q * 0x9E3779B97F4A7C15) & M64)


# frozen: changing any constant in the chain must fail loudly
FROZEN_WORDS = [
    ((0, 0, 0, 0), 0x86AAB3C72B95A222),
    ((1, 1 << 32, 3, 7), 0x7DA2BDE478489226),
    ((M64, 1 << 48, (1 << 20) + 5, 123), 0xAD869DB8E868E4A0),
]


class TestChain:
    @pytest.mark.parametrize("case,want", FROZEN_WORDS)
    def test_frozen_vectors(self, case, want):
        seed, stream, lane, q = case
        keys = rng.lane_keys(seed, stream, np.uint64(lane))
        assert int(rng.words(keys, q)) == want
        assert word_int(*case) == want  # oracle agrees with the frozen value

    def test_oracle_sweep(self):
        cases = [(s, st, ln, q)
                 for s in (0, 1, 0xDEADBEEF, M64)
                 for st in (0, 5, 1 << 63)
                 for ln in (0, 2, (1 << 48) + 17)
                 for q in (0, 1, 999)]
        for seed, stream, lane, q in cases:
            keys = rng.lane_keys(seed, stream, np.uint64(lane))
            assert int(rng.words(keys, q)) == word_int(seed, stream, lane, q)

    def test_broadcast_matches_scalar(self):
        lanes = np.arange(50, dtype=np.uint64)
        keys = rng.lane_keys(3, 9, lanes)
        for i in (0, 7, 49):
            assert int(keys[i]) == lane_key_int(3, 9, i)
        streams = np.arange(4, dtype=np.uint64)
        grid = rng.lane_keys(3, streams[:, None], lanes[None, :])
        assert grid.shape == (4, 50)
        assert int(grid[2, 5]) == lane_key_int(3, 2, 5)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_u64_is_refused(self, seed):
        # masking would alias -1 to 2**64 - 1 and 2**64 to 0
        with pytest.raises(ValueError, match="seed"):
            rng.lane_keys(seed, 0, np.uint64(0))
        with pytest.raises(ValueError, match="seed"):
            generate_environment(ModelParams(1.0, -0.5), 3, seed=seed)

    def test_lane_sensitivity(self):
        # single-bit changes anywhere in the key material flip the output
        base = word_int(0, 0, 0, 0)
        assert word_int(1, 0, 0, 0) != base
        assert word_int(0, 1, 0, 0) != base
        assert word_int(0, 0, 1, 0) != base
        assert word_int(0, 0, 0, 1) != base


class TestUniforms:
    def test_open_interval_and_value(self):
        keys = rng.lane_keys(0, 0, np.arange(10_000, dtype=np.uint64))
        u = rng.uniforms(keys, 0)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        want = (word_int(0, 0, 137, 0) >> 11) * 2.0**-53 + 2.0**-54
        assert u[137] == pytest.approx(want, abs=0)

    def test_uniformity(self):
        keys = rng.lane_keys(5, 0, np.arange(200_000, dtype=np.uint64))
        u = rng.uniforms(keys, 0)
        d = sstats.kstest(u, "uniform").statistic
        assert d < 1.95 / math.sqrt(u.size)

    def test_dyadic_units_are_exact_binary_rationals(self):
        keys = rng.lane_keys(1, 2, np.arange(256, dtype=np.uint64))
        w = rng.dyadic_units(keys)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        for x in w[:32]:
            fr = Fraction(float(x))
            assert (1 << 53) % fr.denominator == 0


class TestGammaDraws:
    @pytest.mark.parametrize("shape", [0.3, 0.5, 1.0, 2.0, 7.5])
    def test_log_moments(self, shape):
        # E log Gamma(a) = psi(a), Var log Gamma(a) = psi'(a)
        keys = rng.lane_keys(11, 0, np.arange(200_000, dtype=np.uint64))
        x = rng.log_gamma_draws(shape, keys)
        se = math.sqrt(float(sc_polygamma(1, shape)) / x.size)
        assert x.mean() == pytest.approx(float(sc_digamma(shape)), abs=5 * se)
        assert x.var() == pytest.approx(float(sc_polygamma(1, shape)), rel=0.05)

    # every shape the calibration configs draw at theta 1: 2 theta, theta
    # +- alpha and -2 alpha at alpha -0.5, -0.1, -0.9, -0.05, -0.99 and -0.3
    @pytest.mark.parametrize("shape", [0.01, 0.1, 0.2, 0.5, 0.6, 0.7, 0.9, 0.95, 1.0, 1.05,
                                       1.1, 1.3, 1.5, 1.8, 1.9, 1.98, 1.99, 2.0])
    def test_distribution(self, shape):
        # on the log scale, where the draws at shape 0.01 do not underflow
        keys = rng.lane_keys(12, 0, np.arange(100_000, dtype=np.uint64))
        x = rng.log_gamma_draws(shape, keys)
        p = sstats.kstest(x, "loggamma", args=(shape,)).pvalue
        assert p > 1e-3

    def test_small_shape_no_underflow(self):
        keys = rng.lane_keys(13, 0, np.arange(20_000, dtype=np.uint64))
        x = rng.log_gamma_draws(0.005, keys)
        assert np.all(np.isfinite(x))
        # log-scale draws reach below log(min subnormal) ~ -745 where
        # exp-space sampling would have collapsed to zero
        assert x.min() < -745

    def test_batch_shape_invariance(self):
        # a lane's draw never depends on which other lanes are batched, on
        # the layout of the keys, or on how the shape is given; 0.5 takes
        # the boosted branch
        keys = rng.lane_keys(7, 3, np.arange(1000, dtype=np.uint64))
        grid_keys = keys.reshape(20, 50)
        for shape in (2.0, 0.5):
            full = rng.log_gamma_draws(shape, keys)
            for stop in (1, 10, 333, 999):
                np.testing.assert_array_equal(full[:stop],
                                              rng.log_gamma_draws(shape, keys[:stop]))
            one = rng.log_gamma_draws(shape, keys[637:638])
            assert full[637] == one[0]
            assert rng.log_gamma_draws(shape, keys[637]) == full[637]
            np.testing.assert_array_equal(
                full, rng.log_gamma_draws(np.full(keys.shape, shape), keys))
            grid = rng.log_gamma_draws(shape, grid_keys)
            np.testing.assert_array_equal(full, grid.reshape(-1))
            np.testing.assert_array_equal(
                grid, rng.log_gamma_draws(np.full((1, 50), shape), grid_keys))
            np.testing.assert_array_equal(
                grid, rng.log_gamma_draws(shape, grid_keys.T.copy()).T)

    def test_block_boundaries_do_not_change_draws(self):
        # large key arrays are drawn in blocks of whole rows; blocks split
        # the 1-D and the 2-D layout at different lanes
        keys = rng.lane_keys(8, 1, np.arange(300 * 400, dtype=np.uint64))
        grid_keys = keys.reshape(300, 400)
        shapes = np.where(np.arange(300) % 3 == 0, 0.5, 2.0)[:, None]
        flat = rng.log_gamma_draws(np.broadcast_to(shapes, grid_keys.shape).reshape(-1), keys)
        np.testing.assert_array_equal(flat.reshape(300, 400),
                                      rng.log_gamma_draws(shapes, grid_keys))
        np.testing.assert_array_equal(
            flat.reshape(300, 400),
            rng.log_gamma_draws(np.broadcast_to(shapes, grid_keys.shape), grid_keys))
        np.testing.assert_array_equal(flat[:1200].reshape(3, 400),
                                      rng.log_gamma_draws(shapes[:3], grid_keys[:3]))
        np.testing.assert_array_equal(
            rng.log_gamma_draws(1.5, keys).reshape(300, 400),
            rng.log_gamma_draws(1.5, grid_keys))

    def test_mixed_shape_row_matches_columns(self):
        # a per-column shape row gives each column the draws of its own
        # shape; the partly boosted row takes the gathered boost correction,
        # a boosted column alone the dense one
        keys = rng.lane_keys(2, np.arange(300, dtype=np.uint64)[:, None],
                             np.arange(5, dtype=np.uint64)[None, :])
        row = np.array([1.5, 2.0, 0.3, 2.0, 0.5])
        got = rng.log_gamma_draws(row[None, :], keys)
        for col, shape in enumerate(row):
            np.testing.assert_array_equal(got[:, col],
                                          rng.log_gamma_draws(shape, keys[:, col].copy()))

    def test_shape_validation(self):
        keys = rng.lane_keys(0, 0, np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            rng.log_gamma_draws(0.0, keys)


# sha256 of the float64 bytes of log_gamma_draws on fixed inputs, recorded
# with the per-round gather sampler that `oracles.gather_log_gamma_draws`
# keeps; any change to a single bit of any draw fails here.  All sixteen
# were recorded again for sm64chain-2, when the Box-Muller normal gave way
# to the ziggurat and each round came to read four slots.  The values
# depend on numpy's float64 log and exp (and on the libm exp, log and
# sqrt that build the ziggurat's boundaries at import), no longer on cos
# or power, so they hold for numpy 2.4 on x86-64 with AVX-512; another
# build may give other last bits, and there `test_matches_gather_oracle`
# is the check that still applies.
# Keys are (shape, slots the lane keys are advanced before drawing).
FROZEN_DRAW_DIGESTS = {
    (0.005, 0):
        "192f90bc9cd738abb46b9d83f4769b9c00b16c0fb911d8e96aa88c7074e7dda0",
    (0.005, 17):
        "dfee37f8cdf400c98562d149015823a8348cc0d794abdfb21f7dfc0d57f5631b",
    (0.3, 0):
        "5721d3495df8709c8a24514f593f41c0421421d2157f698f2dd4c645b4361c37",
    (0.3, 17):
        "28dcb36db01ef7d646e9c6e199f09101894662799955c005e7f557e5233f427d",
    (0.5, 0):
        "c26908f023a0441e1e26132d87910a5aba6f33a0b97106f75491d471ff1dac55",
    (0.5, 17):
        "ba42e5585237c5c781484416076dca0823b1bdc382de1fa830c3e930f3bb61b4",
    (1.0, 0):
        "477dd4f8b049780dac613b5c75a98d54401c5b62be89b3dea1653b8b9a42dca3",
    (1.0, 17):
        "6567e5315d48bf94ae41f5e56d763cdb66c54a4f7a149c75747d869d4389b8f9",
    (1.5, 0):
        "b9e76bec9fdc1cab6468223afec56d2a69e5b95934f778fad7f2e0f8b4b5ad7c",
    (1.5, 17):
        "fc8c69f7db433833f1dd934bd15f16ab4e29a52edd28a560fa011455059851b9",
    (2.0, 0):
        "e45691adef223b398a46d1cf48d9f411107525b61e8ced8f8f77286addd39af1",
    (2.0, 17):
        "2a12ea3032c1e339b94ca3c787a5406a4030c2855521fdb7bd06b2a0e82eeddb",
    (7.5, 0):
        "a0e838791bd73847c0ab4cb071ffec4dbdcbfdbe5b8b8d96e5b7215f11d4bbf8",
    (7.5, 17):
        "e41adbfedc988bee30042b74151820e51de39c6cd520bf6e21aa0a20de5c8b54",
    ("row", 0):
        "bc0e2577fd6556bc8757f5fcce6ddb7656c27879a6a724e943f43e97c3894d65",
    ("row", 17):
        "263683ffbcba9460a22b49fa5158aab5bc6b9fcd2d254d0f79e57f9cf8f07e66",
}


def advance(keys, slots):
    """Keys whose subsequences start `slots` words further along.

    Word q of an advanced key is word q + slots of the original, so the
    sampler reads each lane's subsequence from slot `slots` on.
    """
    return keys + np.uint64(slots * 0x9E3779B97F4A7C15 % 2**64)


def frozen_draws(case, q_base):
    """The draws behind FROZEN_DRAW_DIGESTS, from keys advanced q_base slots.

    A number is a scalar shape over 20,000 lanes of one stream.  "row" is a
    per-column shape row over 2-D keys (256 streams x 24 sites), laid out
    like one anti-diagonal of `stream_log_weights` for the stationary
    flavor at (theta, alpha) = (1, -1/2): theta - alpha on the first
    column, theta + alpha on the diagonal and 2 theta in the bulk.
    """
    if case == "row":
        theta, alpha = 1.0, -0.5
        row = np.full(24, 2.0 * theta)
        row[0], row[-1] = theta - alpha, theta + alpha
        keys = rng.lane_keys(21, np.arange(256, dtype=np.uint64)[:, None],
                             np.arange(100, 124, dtype=np.uint64)[None, :])
        return rng.log_gamma_draws(row[None, :], advance(keys, q_base))
    keys = rng.lane_keys(21, 4, np.arange(20_000, dtype=np.uint64))
    return rng.log_gamma_draws(case, advance(keys, q_base))


def draws_digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("case,q_base", sorted(FROZEN_DRAW_DIGESTS, key=str))
def test_frozen_draw_digests(case, q_base):
    assert draws_digest(frozen_draws(case, q_base)) == FROZEN_DRAW_DIGESTS[case, q_base]


@pytest.mark.parametrize("shape", [0.005, 0.5, 1.0, 2.0])
def test_matches_gather_oracle(shape):
    # same bits as the round-by-round gather sampler, whatever the build's
    # log and exp return; 2-D keys span several blocks
    keys = rng.lane_keys(33, np.arange(200, dtype=np.uint64)[:, None],
                         np.arange(400, dtype=np.uint64)[None, :])
    row = np.full((1, 400), shape)
    row[0, 0], row[0, -1] = 1.5, 0.5
    for q_base in (0, 17):
        moved = advance(keys, q_base)
        np.testing.assert_array_equal(rng.log_gamma_draws(shape, moved),
                                      gather_log_gamma_draws(shape, keys, q_base))
        np.testing.assert_array_equal(rng.log_gamma_draws(row, moved),
                                      gather_log_gamma_draws(row, keys, q_base))


def test_matches_gather_oracle_at_a_shape_per_lane():
    # a shape array the full shape of the keys, so every round gathers d
    # by flat index from a full array; the keys span two blocks
    keys = rng.lane_keys(34, np.arange(200, dtype=np.uint64)[:, None],
                         np.arange(400, dtype=np.uint64)[None, :])
    assert keys.size > rng._BLOCK_LANES
    pick = np.random.default_rng(5).integers(0, 5, keys.shape)
    shape = np.array([0.005, 0.5, 1.5, 2.0, 7.5])[pick]
    for q_base in (0, 17):
        np.testing.assert_array_equal(rng.log_gamma_draws(shape, advance(keys, q_base)),
                                      gather_log_gamma_draws(shape, keys, q_base))


def base_layer_keys(count, q, seed):
    """Keys whose word q falls in the ziggurat's base layer (layer bits 0).

    Random words with their low 8 bits cleared are mapped back through the
    inverse of the splitmix64 finalizer, so the keys' words q+1 and q+2 are
    as random as any others.
    """
    words = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64,
                                                 endpoint=False) & ~np.uint64(255)
    z = words.copy()
    with np.errstate(over="ignore"):
        z ^= (z >> np.uint64(31)) ^ (z >> np.uint64(62))
        z *= np.uint64(pow(0x94D049BB133111EB, -1, 2**64))
        z ^= (z >> np.uint64(27)) ^ (z >> np.uint64(54))
        z *= np.uint64(pow(0xBF58476D1CE4E5B9, -1, 2**64))
        z ^= (z >> np.uint64(30)) ^ (z >> np.uint64(60))
        keys = z - np.uint64(q * 0x9E3779B97F4A7C15 % 2**64)
    np.testing.assert_array_equal(rng.words(keys, q), words)
    return keys


def ziggurat_normals(keys, q=1, chunk=1 << 20):
    """The ziggurat's accepted normals on `keys`, and how many lanes it rejected."""
    out = []
    for lo in range(0, keys.size, chunk):
        part = keys[lo:lo + chunk]
        z, entry, scratch = np.empty((3, part.size))
        rng._ziggurat_normals(part, q, z, entry.view(np.int64), scratch)
        out.append(z)
    z = np.concatenate(out)
    assert np.all(np.isfinite(z) | (z == -np.inf))
    return z[np.isfinite(z)], int(np.sum(z == -np.inf))


def layer_areas(x):
    """Area of each ziggurat layer from its boundaries: the base strip with
    its tail's envelope f(r)/r, then the boxes x[i] (f(x[i+1]) - f(x[i])),
    the top one included, with the differences of f in a form that does
    not cancel."""
    r = x[1]
    areas = [math.exp(-0.5 * r * r) * (r + 1.0 / r)]
    for lo, hi in zip(x[1:-1], x[2:]):
        areas.append(-lo * math.exp(-0.5 * hi * hi) * math.expm1(-0.5 * (lo - hi) * (lo + hi)))
    return np.array(areas)


class TestZiggurat:
    """The normal that each Marsaglia-Tsang round draws, on its own."""

    N = 1 << 22

    def normals_ks(self):
        keys = rng.lane_keys(40, 0, np.arange(self.N, dtype=np.uint64))
        z, rejected = ziggurat_normals(keys)
        assert rejected < 0.01 * self.N
        return stats.ks_test(z, stats.normal_cdf).pvalue

    def test_normals_follow_phi(self):
        assert self.normals_ks() > SIGNIFICANCE

    def tail_draws(self):
        """|z| beyond r from base-layer lanes, and the z-score of their count.

        A share ratio[0] = r / x[0] of base-layer lanes lands in the strip,
        the rest in the tail's envelope, thinned to the tail itself; so the
        tail keeps a share (integral of f beyond r) / v of them.
        """
        n, r = 1 << 20, rng._ZIG.x[1]
        z, _ = ziggurat_normals(base_layer_keys(n, 1, seed=3))
        assert np.any(z < -r) and np.any(z > r)
        share = math.sqrt(2.0 * math.pi) * float(stats.normal_cdf(-r)) / rng._ZIG_V
        tail = np.abs(z[np.abs(z) > r])
        return tail, (tail.size - n * share) / math.sqrt(n * share * (1.0 - share))

    def test_tail_law_beyond_r(self):
        tail, z_score = self.tail_draws()
        assert abs(z_score) < sstats.norm.isf(SIGNIFICANCE / 2.0)
        q_r = float(stats.normal_cdf(-rng._ZIG.x[1]))
        cdf = lambda t: 1.0 - stats.normal_cdf(-t) / q_r
        assert stats.ks_test(tail, cdf).pvalue > SIGNIFICANCE

    def test_tables(self):
        x = rng._ZIG.x
        assert x.size == 257 and x[256] == 0.0 and np.all(np.diff(x) < 0.0)
        assert x[0] * math.exp(-0.5 * x[1] ** 2) == pytest.approx(rng._ZIG_V, rel=1e-15)
        # every layer's area, the base strip with its tail's envelope and
        # the top layer included, is v; 1.5e-13 is the largest miss, at the
        # top layer, where the closure gathers the rounding of the
        # recurrence (no double table meets 1e-14: rounding the exact
        # boundaries alone leaves layer 149 2.9e-14 off)
        areas = layer_areas(x)
        assert areas.size == 256
        np.testing.assert_allclose(areas, rng._ZIG_V, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("off", [-1e-3, 1e-3])
    def test_tables_refuse_v_off(self, off):
        # v off by 1e-3 moves the top layer's area by a third; the KS of
        # 2**22 normals alone misses it (p 0.14 and 0.26)
        x = rng._ziggurat_tables(rng._ZIG_R, rng._ZIG_V * (1.0 + off)).x
        rel = np.abs(layer_areas(x) / rng._ZIG_V - 1.0)
        assert rel[-1] > 0.3

    def test_ks_refuses_a_dropped_sign_bit(self, monkeypatch):
        monkeypatch.setattr(rng, "_ZIG", rng._ZIG._replace(width=np.abs(rng._ZIG.width)))
        assert self.normals_ks() <= SIGNIFICANCE

    def test_tail_refuses_the_tail_area_base(self, monkeypatch):
        # Marsaglia and Tsang's base layer holds the tail itself: with a
        # whole-round rejection its tails come 6.2% too rarely
        monkeypatch.setattr(rng, "_ZIG", rng._ziggurat_tables(3.6541528853610088,
                                                               0.004928673233974655))
        _, z_score = self.tail_draws()
        assert abs(z_score) > sstats.norm.isf(SIGNIFICANCE / 2.0)
