"""The KS tail function and tests of `hslg_lab.stats` against scipy.

scipy.stats is the oracle here only: the package computes these itself,
because importing scipy.stats loads modules the CLI must not.
"""
import math

import numpy as np
import pytest
import scipy.stats

from hslg_lab.stats import kolmogorov_sf, ks_test


def stephens_pvalue(d: float, en: float) -> float:
    return float(scipy.stats.kstwobign.sf((en + 0.12 + 0.11 / en) * d))


class TestKolmogorovSf:
    @pytest.mark.parametrize("t", [0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0, 1.17,
                                   1.18, 1.19, 1.36, 1.63, 2.0, 3.0, 5.0])
    def test_matches_kstwobign(self, t):
        assert kolmogorov_sf(t) == pytest.approx(
            scipy.stats.kstwobign.sf(t), rel=1e-12, abs=1e-15)

    def test_negative_argument_is_certain(self):
        assert kolmogorov_sf(-1.0) == 1.0


class TestKsTest:
    @pytest.mark.parametrize("n", [8, 50, 400])
    def test_one_sample_against_a_cdf(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.3):
            x = rng.normal(shift, 1.0, n)
            got = ks_test(x, scipy.stats.norm.cdf)
            want = scipy.stats.kstest(x, scipy.stats.norm.cdf)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
            assert got.pvalue == pytest.approx(
                stephens_pvalue(got.statistic, math.sqrt(n)), rel=1e-12)

    @pytest.mark.parametrize("n, m", [(8, 8), (40, 75), (300, 120)])
    def test_two_sample(self, n, m):
        rng = np.random.default_rng(n + m)
        x = rng.normal(0.0, 1.0, n)
        y = rng.normal(0.2, 1.2, m)
        got = ks_test(x, y)
        want = scipy.stats.ks_2samp(x, y)
        assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
        assert got.pvalue == pytest.approx(
            stephens_pvalue(got.statistic, math.sqrt(n * m / (n + m))), rel=1e-12)

    def test_two_sample_with_ties(self):
        x = np.array([0, 1, 1, 2, 2, 2, 3, 5], dtype=float)
        y = np.array([1, 1, 2, 3, 3, 4, 4, 4, 6], dtype=float)
        want = scipy.stats.ks_2samp(x, y)
        assert ks_test(x, y).statistic == pytest.approx(want.statistic, rel=1e-12)

    def test_refuses_small_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(7.0), scipy.stats.norm.cdf)
        with pytest.raises(ValueError):
            ks_test(np.arange(8.0), np.arange(7.0))

    def test_refuses_non_finite_samples_on_either_side(self):
        # a NaN sorts last and moves D by only 1/n, so it would pass unseen
        x, y = np.arange(20.0), np.arange(20.0) + 0.5
        bad = x.copy()
        bad[3] = np.nan
        for args in ((bad, y), (x, bad), (bad, scipy.stats.norm.cdf)):
            with pytest.raises(ValueError, match="finite"):
                ks_test(*args)

