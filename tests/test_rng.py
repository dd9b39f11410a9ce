"""Counter-based RNG: frozen vectors, pure-integer oracle, draw quality.

The oracle below re-implements the chain with plain Python integers, so a
silent change to the numpy uint64 arithmetic (casts, overflow handling,
constants) cannot slip through.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats
from scipy.special import digamma as sc_digamma, polygamma as sc_polygamma

from hslg_lab import rng

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
        # a lane's draw never depends on which other lanes are batched
        lanes = np.arange(1000, dtype=np.uint64)
        keys = rng.lane_keys(7, 3, lanes)
        full = rng.log_gamma_draws(2.0, keys)
        head = rng.log_gamma_draws(2.0, keys[:10])
        np.testing.assert_array_equal(full[:10], head)
        one = rng.log_gamma_draws(2.0, keys[637:638])
        assert full[637] == one[0]

    def test_shape_validation(self):
        keys = rng.lane_keys(0, 0, np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            rng.log_gamma_draws(0.0, keys)
