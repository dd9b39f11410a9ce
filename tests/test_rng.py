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

from hslg_lab import rng
from hslg_lab.environment import generate_environment
from hslg_lab.special import ModelParams

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

    @pytest.mark.parametrize("shape", [0.5, 2.0])
    def test_distribution(self, shape):
        keys = rng.lane_keys(12, 0, np.arange(100_000, dtype=np.uint64))
        x = np.exp(rng.log_gamma_draws(shape, keys))
        p = sstats.kstest(x, "gamma", args=(shape,)).pvalue
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
# keeps; any change to a single bit of any draw fails here.  The values
# depend on numpy's float64 log, cos and power, so they hold for numpy 2.4
# on x86-64 with AVX-512; another numpy build may give other last bits,
# and there `test_matches_gather_oracle` is the check that still applies.
# Keys are (shape, slots the lane keys are advanced before drawing).
FROZEN_DRAW_DIGESTS = {
    (0.005, 0):
        "86eea5b1de6330054fd6bfbdc6d3d6cb08afae3acdb0b3d26fb761808a3b3750",
    (0.005, 17):
        "8d1ca83fd76eea7665acdf328574d3daa4640078ffc354c7a94ade8810c9fa12",
    (0.3, 0):
        "f0163d12d8eb596f5f927cfb2aa8a7e32b0c534487feb0fcfedc0819fc277c00",
    (0.3, 17):
        "b10abbeae8e973531c14df054e53d569302c40874ae5dc23f0a805e34012d6de",
    (0.5, 0):
        "8bcfb9bd69fefaacdfe8cbad16253bc8d5191adfdfeee67a1d7f6b17b55a6de6",
    (0.5, 17):
        "84eb53060331ca35252af34d1d0c104d8aad28686473c13fb3f6d66f94df6c76",
    (1.0, 0):
        "733634295b4476648c0925d8f500853d38015305281882518bbe31953a237932",
    (1.0, 17):
        "f5d54eb41fa915a31c49cc1ddbda39a4d51bfbd20f036e9ccec2ba39b26f2a29",
    (1.5, 0):
        "2a02285ffcbc7806dc8ebbaab9c5f53e0ccbc5b1dd3c32605ed970097a563b46",
    (1.5, 17):
        "7a65564049c2cd510f492e062f838604092cd4f70d293ddbdc2ed2a6b6f367ef",
    (2.0, 0):
        "bd330f7eee2658cd81b52cd8daaf38a637943259abf63bc7865a9bf183fec500",
    (2.0, 17):
        "91800f80e96c7c18428583868fb8902c684b57adc339d3cc139b707e1f8848a0",
    (7.5, 0):
        "88ecc7ceb24fbe9e3821f9ce1888a79bca8593a42d0438fc4a7f8f7269f90b8d",
    (7.5, 17):
        "16022ead50a8affc296c56554f05560ccca65f9f5869c9c6a1a0e3a04d0c701e",
    ("row", 0):
        "4fde95a5a8f7bba5e1834d5797953ae3f4fc056b87072800b726099bfad23bdb",
    ("row", 17):
        "2f2acd21e163d682249dc2cd32a11ffa05de121cab6813245df11e2fdec885c5",
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
    # log, cos and power return; 2-D keys span several blocks
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


class TestSqueeze:
    """The product-form squeeze with its guard band against ``z**4``."""

    def test_guard_band_matches_power_form(self):
        z = np.concatenate([np.linspace(-2.4, 2.4, 4801), np.linspace(-8.66, 8.66, 4801)])
        bound = 1.0 - 0.0331 * z**4
        z2 = z * z
        differs = bound != 1.0 - 0.0331 * (z2 * z2)
        # the two bounds really do disagree on both signs of z, so the
        # u3 values below sit on the wrong side of the product bound
        assert np.any(differs & (z < 0)) and np.any(differs & (z > 0))
        for u3 in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)):
            np.testing.assert_array_equal(rng._squeeze(u3, z),
                                          u3 < 1.0 - 0.0331 * z**4)
