"""Environment sampling, flavors, symmetrization, and the file format."""
import math
from fractions import Fraction

import numpy as np
import pytest

from hslg_lab import rng
from hslg_lab.environment import (EnvFormatError, Environment, _lift,
                                  generate_dyadic_environment,
                                  generate_environment, read_environment,
                                  site_code, site_shapes, stream_log_weights,
                                  symmetrize, wedge_count, wedge_sites,
                                  write_environment)
from hslg_lab.special import ModelParams


class TestWedge:
    def test_small_enumeration(self):
        assert list(wedge_sites(2)) == [(1, 1), (2, 1), (2, 2), (3, 1)]
        assert wedge_count(2) == 4

    def test_count_matches_enumeration(self):
        for n in range(1, 9):
            assert wedge_count(n) == sum(1 for _ in wedge_sites(n))

    def test_sites_inside_wedge(self):
        for i, j in wedge_sites(5):
            assert 1 <= j <= i and i + j <= 10

    def test_site_code_injective(self):
        codes = [site_code(i, j) for i, j in wedge_sites(12)]
        assert len(set(codes)) == len(codes)
        assert max(codes) < 1 << 48  # stays inside the weight-lane namespace


class TestSiteShapes:
    def test_standard(self, params):
        shapes = site_shapes(params, "standard", np.array([1, 2, 3, 3]),
                             np.array([1, 1, 3, 2]))
        np.testing.assert_allclose(shapes, [0.5, 2.0, 0.5, 2.0])

    def test_stationary_first_column(self, params):
        i = np.array([1, 2, 3, 3])
        j = np.array([1, 1, 1, 2])
        shapes = site_shapes(params, "stationary", i, j)
        # the origin keeps the diagonal law, the wall column switches
        np.testing.assert_allclose(shapes, [0.5, 1.5, 1.5, 2.0])

    def test_alpha_zero_diagonal(self, params):
        shapes = site_shapes(params, "alpha-zero-diagonal",
                             np.array([2, 4]), np.array([2, 1]))
        np.testing.assert_allclose(shapes, [1.0, 2.0])

    def test_unknown_flavor(self, params):
        with pytest.raises(ValueError):
            site_shapes(params, "nope", np.array([1]), np.array([1]))


class TestGenerate:
    def test_deterministic(self, params):
        a = generate_environment(params, 6, seed=5, stream=9)
        b = generate_environment(params, 6, seed=5, stream=9)
        np.testing.assert_array_equal(a.w, b.w)
        c = generate_environment(params, 6, seed=5, stream=10)
        assert not np.array_equal(a.w, c.w)

    def test_weights_positive_finite(self, params):
        env = generate_environment(params, 16, seed=0)
        assert np.all(np.isfinite(env.w)) and np.all(env.w > 0.0)

    def test_weight_lookup_matches_row_major(self, params):
        env = generate_environment(params, 4, seed=1)
        for idx, (i, j) in enumerate(env.sites()):
            assert env.weight(i, j) == env.w[idx]
        with pytest.raises(KeyError):
            env.weight(2, 3)  # above the diagonal
        with pytest.raises(KeyError):
            env.weight(8, 1)  # beyond the last anti-diagonal

    def test_size_extension_reuses_sites(self, params):
        # lanes are site codes, so a larger wedge extends a smaller one
        small = generate_environment(params, 4, seed=3)
        large = generate_environment(params, 8, seed=3)
        for i, j in wedge_sites(4):
            assert small.weight(i, j) == large.weight(i, j)

    def test_inverse_gamma_law(self, params):
        # diagonal weights are 1/Gamma(theta+alpha): compare log-mean
        env = generate_environment(params, 64, seed=2)
        diag = np.array([env.weight(i, i) for i in range(1, 65)])
        from scipy.special import digamma as sc_digamma
        from scipy.special import polygamma as sc_polygamma
        se = math.sqrt(float(sc_polygamma(1, 0.5)) / 64)
        assert np.log(diag).mean() == pytest.approx(
            -float(sc_digamma(0.5)), abs=5 * se)

    def test_stream_log_weights_bitwise(self, params):
        streams = np.array([4, 9], dtype=np.uint64)
        envs = [generate_environment(params, 5, "stationary", seed=7, stream=s)
                for s in streams]
        seen = 0
        for s, j_arr, logw in stream_log_weights(params, 5, "stationary", 7,
                                                 streams):
            for row, env in enumerate(envs):
                for col, j in enumerate(j_arr):
                    assert float(np.exp(logw[row, col])) == env.weight(s - j, j)
                    seen += 1
        assert seen == 2 * wedge_count(5)


class TestSymmetrize:
    def test_reflection_and_halving(self, params):
        env = generate_environment(params, 5, seed=11)
        senv = symmetrize(env)
        assert senv.weights(2, 3) == env.weight(3, 2)
        assert senv.weights(3, 3) == env.weight(3, 3) / 2
        assert senv.weight_fraction(2, 3) == Fraction(env.weight(3, 2))
        assert senv.weight_fraction(4, 4) == Fraction(env.weight(4, 4)) / 2

    def test_fraction_lossless(self, params):
        env = generate_dyadic_environment(params, 4, seed=1)
        senv = symmetrize(env)
        i, j = np.array(list(wedge_sites(4))).T
        for a, b, w in zip(i, j, senv.weights(i, j)):
            assert float(senv.weight_fraction(a, b)) == w

    def test_vector_gather_matches_scalar_lookup(self, params):
        env = generate_environment(params, 5, seed=12)
        senv = symmetrize(env)
        i, j = np.meshgrid(np.arange(1, 10), np.arange(1, 10), indexing="ij")
        inside = i + j <= 10
        got = senv.weights(i[inside], j[inside])
        for a, b, w in zip(i[inside], j[inside], got):
            lo, hi = min(a, b), max(a, b)
            assert w == (env.weight(a, a) / 2 if a == b else env.weight(hi, lo))
            assert w == senv.weights(b, a)
            assert Fraction(w) == senv.weight_fraction(a, b)


class TestDyadicLift:
    def test_scale_is_one_past_the_largest_denominator_exponent(self, params):
        env = generate_environment(params, 5, seed=13)
        bits = max(Fraction(float(x)).denominator.bit_length() - 1 for x in env.w)
        assert env.dyadic_scale == symmetrize(env).dyadic_scale == bits + 1

    def test_lifted_weights_are_exact(self, params):
        env = generate_environment(params, 5, seed=14)
        senv = symmetrize(env)
        scale = env.dyadic_scale
        i, j = np.meshgrid(np.arange(1, 10), np.arange(1, 10), indexing="ij")
        inside = i + j <= 10
        i, j = i[inside], j[inside]
        for a, b, z in zip(i, j, senv.dyadic_weights(i, j, scale)):
            assert Fraction(z, 1 << scale) == senv.weight_fraction(a, b)
        i, j = np.array(list(wedge_sites(5))).T
        for a, b, z in zip(i, j, env.dyadic_weights(i, j, scale)):
            assert Fraction(z, 1 << scale) == Fraction(env.weight(a, b))

    def test_subnormal_diagonal_halves_exactly(self, params):
        # float halving of 3 * 2^-1074 rounds to 2^-1073; the lift does not
        w = np.full(wedge_count(2), 0.75)
        w[2] = math.ldexp(3.0, -1074)       # site (2, 2)
        senv = symmetrize(Environment(params, 2, "standard", w))
        with np.errstate(under="ignore"):
            assert Fraction(float(senv.weights(2, 2))) != senv.weight_fraction(2, 2)
        scale = senv.dyadic_scale
        assert scale == 1075
        (z,) = senv.dyadic_weights(np.array([2]), np.array([2]), scale)
        assert Fraction(z, 1 << scale) == senv.weight_fraction(2, 2)

    def test_lift_needing_a_negative_shift_raises(self, params):
        assert _lift(np.array([0.75, 3.0]), 2) == [3, 12]
        assert _lift(np.array([0.75, 0.75]), np.array([2, 3])) == [3, 6]
        with pytest.raises(ValueError, match="fraction bits"):
            _lift(np.array([0.1]), 3)
        env = generate_environment(params, 4, seed=15)
        senv = symmetrize(env)
        i, j = np.array(list(wedge_sites(4))).T
        # the largest denominator exponent is dyadic_scale - 1 by definition
        with pytest.raises(ValueError, match="fraction bits"):
            env.dyadic_weights(i, j, env.dyadic_scale - 2)
        with pytest.raises(ValueError, match="fraction bits"):
            senv.dyadic_weights(np.concatenate([i, j]), np.concatenate([j, i]),
                                senv.dyadic_scale - 2)


class TestDyadic:
    def test_values_are_dyadic(self, params):
        env = generate_dyadic_environment(params, 6, seed=2)
        for x in env.w:
            fr = Fraction(float(x))
            assert (1 << 53) % fr.denominator == 0
            assert 0 < fr <= 1


class TestFileFormat:
    def test_round_trip(self, tmp_path, params):
        env = generate_environment(params, 5, "stationary", seed=13, stream=4)
        path = tmp_path / "e.env"
        write_environment(env, path)
        back = read_environment(path)
        assert back.n == 5 and back.flavor == "stationary"
        assert back.params == params
        assert back.seed == 13 and back.stream == 4
        np.testing.assert_array_equal(back.w, env.w)

    def _lines(self, tmp_path, params):
        env = generate_environment(params, 3, seed=1)
        path = tmp_path / "e.env"
        write_environment(env, path)
        return path, path.read_text().splitlines()

    def test_rejects_wrong_magic(self, tmp_path, params):
        path, lines = self._lines(tmp_path, params)
        lines[0] = "format=SOMETHING-ELSE"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnvFormatError) as err:
            read_environment(path)
        assert err.value.line_no == 1

    def test_rejects_bad_number(self, tmp_path, params):
        path, lines = self._lines(tmp_path, params)
        lines[2] = "theta=banana"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnvFormatError) as err:
            read_environment(path)
        assert err.value.field == "theta"

    def test_rejects_unbound_alpha(self, tmp_path, params):
        path, lines = self._lines(tmp_path, params)
        lines[3] = "alpha=0.25"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnvFormatError):
            read_environment(path)

    def test_rejects_truncation(self, tmp_path, params):
        path, lines = self._lines(tmp_path, params)
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(EnvFormatError):
            read_environment(path)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_nonpositive_size(self, tmp_path, params, n):
        path, lines = self._lines(tmp_path, params)
        lines[4] = f"n={n}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnvFormatError) as err:
            read_environment(path)
        assert (err.value.line_no, err.value.field) == (5, "n")

    def test_rejects_short_file_before_sizing_for_its_n(self, tmp_path, params):
        # 10^12 sites would not fit in memory: the line count refuses first
        path, lines = self._lines(tmp_path, params)
        lines[4] = "n=1000000"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnvFormatError) as err:
            read_environment(path)
        assert (err.value.line_no, err.value.field) == (len(lines) + 1, "site")

    def test_rejects_bad_site_value(self, tmp_path, params):
        path, lines = self._lines(tmp_path, params)
        parts = lines[9].split()
        lines[9] = f"{parts[0]} {parts[1]} -1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EnvFormatError):
            read_environment(path)
