"""Digamma/trigamma accuracy and the derived model constants.

`hslg_lab.special` takes digamma and polygamma from scipy.special; the
oracles here do not: a zeta series around z = 1 extended by the recurrence
for digamma, a direct sum with an Euler-Maclaurin tail for trigamma, and
hand-reduced closed forms at (theta, alpha) = (1, -1/2).
"""
import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from hslg_lab.special import (Constants, ModelParams, constants, delta_k,
                              digamma, k_star, polygamma)

EULER = 0.57721566490153286060651209


def digamma_series(z: float) -> float:
    """psi(z) from the zeta expansion around 1 plus the recurrence.

    psi(1 + w) = -euler + sum_{n>=2} (-1)^n zeta(n) w^{n-1} for |w| < 1;
    outside the disc walk down with psi(z) = psi(z+1) - 1/z.
    """
    shift = 0.0
    while z < 0.5:
        shift -= 1.0 / z
        z += 1.0
    while z >= 1.5:
        z -= 1.0
        shift += 1.0 / z
    w = z - 1.0
    total = -EULER
    term_sign = 1.0
    for n in range(2, 400):
        term = term_sign * hurwitz_zeta(n, 1.0) * w ** (n - 1)
        total += term
        term_sign = -term_sign
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total + shift


def trigamma_sum(z: float, terms: int = 20) -> float:
    """psi'(z) = sum_{k>=0} 1/(z+k)^2, summed directly for k < `terms`.

    The tail sum_{k>=0} 1/(x+k)^2 at x = z + terms is the Euler-Maclaurin
    series 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7) - 1/(30x^9);
    it encloses the tail, so its error is below the first omitted term
    5/(66 x^11), under 4e-16 for z > 0 and 20 terms.  What is left is the
    rounding of the terms, a few ulps of the result.
    """
    x = z + terms
    tail = (1 / x + 1 / (2 * x**2) + 1 / (6 * x**3) - 1 / (30 * x**5)
            + 1 / (42 * x**7) - 1 / (30 * x**9))
    return math.fsum([1.0 / (z + k) ** 2 for k in range(terms)] + [tail])


class TestDigamma:
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9, 1.0, 1.5, 2.0, 3.7, 10.0,
                                   25.0, 123.456])
    def test_series_oracle(self, z):
        assert digamma(z) == pytest.approx(digamma_series(z), abs=1e-10)

    def test_half_integer_closed_form(self):
        # psi(1/2) = -euler - 2 log 2, psi(3/2) adds 2
        assert digamma(0.5) == pytest.approx(-EULER - 2 * math.log(2), abs=1e-12)
        assert digamma(1.5) == pytest.approx(2 - EULER - 2 * math.log(2), abs=1e-12)

    def test_recurrence(self):
        for z in (0.25, 1.1, 7.3):
            assert digamma(z + 1) == pytest.approx(digamma(z) + 1 / z, rel=1e-13)

    def test_vectorized(self):
        z = np.array([0.5, 1.0, 2.5])
        out = digamma(z)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(-EULER, abs=1e-12)


class TestTrigamma:
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 1.5, 2.0, 6.5, 40.0])
    def test_hurwitz_oracle(self, z):
        # psi'(z) is the Hurwitz zeta(2, z), here summed directly; the
        # oracle is within a few ulps of it, see trigamma_sum
        assert polygamma(1, z) == pytest.approx(trigamma_sum(z), rel=1e-14)

    def test_half_closed_form(self):
        assert polygamma(1, 0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
        assert polygamma(1, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_recurrence(self):
        for z in (0.3, 1.7):
            lhs = polygamma(1, z + 1)
            assert lhs == pytest.approx(polygamma(1, z) - 1 / z ** 2, rel=1e-12)


class TestModelParams:
    def test_bound_phase_window(self):
        ModelParams(1.0, -0.999)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.5)
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0)
        with pytest.raises(ValueError):
            ModelParams(-1.0, -0.5)

    def test_site_shapes(self, params):
        assert params.shape_diag == 0.5
        assert params.shape_bulk == 2.0
        assert params.shape_boundary == 1.5


class TestConstants:
    """Hand-reduced closed forms at (1, -1/2).

    psi(1/2) = -euler - 2 log 2 and psi(3/2) = psi(1/2) + 2 give
    rate = 2 euler + 4 log 2 - 2, drift = 2, variance difference = 4,
    and increment variance psi'(1/2) + psi'(3/2) = pi^2 - 4.
    """

    def test_closed_forms(self, params):
        c = constants(params)
        assert isinstance(c, Constants)
        assert c.free_energy_rate == pytest.approx(
            2 * EULER + 4 * math.log(2) - 2, abs=1e-12)
        assert c.increment_drift == pytest.approx(2.0, abs=1e-12)
        assert c.clt_variance == pytest.approx(4.0, abs=1e-12)
        assert polygamma(1, 0.5) + polygamma(1, 1.5) == pytest.approx(
            math.pi ** 2 - 4, abs=1e-12)

    def test_formulas_any_point(self, params_grid):
        for p in params_grid:
            c = constants(p)
            assert c.free_energy_rate == pytest.approx(
                -digamma(p.theta + p.alpha) - digamma(p.theta - p.alpha))
            assert c.increment_drift == pytest.approx(
                digamma(p.theta - p.alpha) - digamma(p.theta + p.alpha))
            assert c.increment_drift > 0  # binding means positive decay
            assert c.clt_variance > 0
            increment_var = (polygamma(1, p.theta + p.alpha)
                             + polygamma(1, p.theta - p.alpha))
            assert increment_var > c.clt_variance


class TestDeltaK:
    def test_closed_form_at_default(self, params):
        # delta_k = (2 - 1/(2k)) log 2 - 1 at (1, -1/2)
        for k in (1, 2, 5):
            want = (2 - 1 / (2 * k)) * math.log(2) - 1
            assert delta_k(params, k) == pytest.approx(want, abs=1e-12)

    def test_k_star_is_first_positive(self, params_grid):
        for p in params_grid:
            ks = k_star(p)
            assert delta_k(p, ks) > 0
            if ks > 1:
                assert delta_k(p, ks - 1) <= 0

    def test_k_star_weak_binding_is_large(self):
        # weak binding pushes the threshold far out
        assert k_star(ModelParams(1.0, -0.1)) > 10
        assert k_star(ModelParams(1.0, -0.5)) == 1
