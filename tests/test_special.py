"""Digamma/trigamma accuracy and the derived model constants.

`hslg_lab.special` computes digamma and trigamma itself, by the
recurrence and the asymptotic series in 40-digit decimal.  At every theta
and theta +- alpha that the calibration and benchmark configs evaluate,
and at psi's positive root, they must equal `polygamma_reference`, the
same route at twice the precision with its own Bernoulli numbers, and lie
within 2 ulps of scipy.special (3 for trigamma: scipy's psi'(0.9) is 3
ulps above the true value).  Oracles that use neither: a zeta series
around z = 1 extended by the recurrence for digamma, a direct sum with an
Euler-Maclaurin tail for trigamma, and hand-reduced closed forms at
(theta, alpha) = (1, -1/2).

`beta_cdf_logit` is checked against scipy.special.betainc at the Beta
shapes of every calibration and benchmark (theta, alpha), to 1e-14 over
logits in [-700, 700], and to 1e-12 for theta up to 100 (the prefactor's
log B(a, b) loses digits to cancellation as the shapes grow); against the
closed forms of I_x(a, 1), I_x(1, b) and I_x(1/2, 1/2), which use no scipy;
against the symmetry I_x(a, b) + I_{1-x}(b, a) = 1; and it must raise, not
return, where its continued fraction has not converged.
"""
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy.special import zeta as hurwitz_zeta

import calibrate_checks
from hslg_lab.special import (Constants, ModelParams, beta_cdf_logit, constants,
                              delta_k, digamma, k_star, trigamma)

# psi's positive root, where psi is about -9.2e-17: a truncation error of
# the series far below an ulp of 1 is still many ulps of the value here
PSI_ROOT = 1.4616321449683622


# every calibration config (the benchmark's configs are among them) and the
# shared test points
POINTS = sorted({p for _, p, _ in calibrate_checks.DRIVERS.values()}
                | {ModelParams(1.0, -0.5), ModelParams(0.7, -0.3),
                   ModelParams(2.0, -1.2), ModelParams(1.0, -0.1)},
                key=lambda p: (p.theta, p.alpha))


def _grid() -> list[float]:
    """theta and theta +- alpha of `POINTS`, and psi's root."""
    xs = {x for p in POINTS for x in (p.theta, p.theta + p.alpha, p.theta - p.alpha)}
    return sorted(xs | {PSI_ROOT})


def _beta_shapes(params) -> list[tuple[float, float]]:
    """The shapes of the two Beta laws the checks read at each point: the
    increment's (theta - alpha, theta + alpha) and (Q - 1)/Q's (theta +
    alpha, -2 alpha)."""
    return [(p.theta - p.alpha, p.theta + p.alpha) for p in params] + [
        (p.theta + p.alpha, -2.0 * p.alpha) for p in params]


CHECK_SHAPES = _beta_shapes(POINTS)
LARGE_SHAPES = _beta_shapes([ModelParams(t, -f * t) for t in (2.0, 5.0, 10.0, 30.0, 100.0)
                             for f in (0.999, 0.7, 0.3, 0.02)])
LOGITS = np.concatenate([np.linspace(-700.0, 700.0, 14001), np.linspace(-40.0, 40.0, 8001)])


def betainc_logit(a: float, b: float, v: np.ndarray) -> np.ndarray:
    """scipy's I_{sigma(v)}(a, b), for v >= 0 as one minus I_{sigma(-v)}(b, a),
    whose argument keeps the digits that sigma(v) rounds away near 1."""
    with np.errstate(under="ignore"):
        return np.where(v < 0.0, scipy.special.betainc(a, b, scipy.special.expit(v)),
                        1.0 - scipy.special.betainc(b, a, scipy.special.expit(-v)))


def _ulps(a: float, b: float) -> int:
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def polygamma_reference(order: int, z: float) -> float:
    """psi (order 0) or psi' (order 1) at z > 0 to about 65 digits, as a float.

    In 80-digit decimal, 200 steps of the recurrence, then the asymptotic
    series through B_30 at z + 200, whose first omitted term is under 1e-65.
    The Bernoulli numbers come from sum_{k<=m} C(m+1, k) B_k = 0.
    """
    b = [Fraction(1)]
    for m in range(1, 31):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    with localcontext(Context(prec=80)):
        x = Decimal(z)
        y = x + 200
        shifted = sum(1 / (x + k) ** (order + 1) for k in range(200))
        terms = [Decimal(b[2 * k].numerator) / b[2 * k].denominator for k in range(1, 16)]
        if order == 0:
            series = y.ln() - 1 / (2 * y) - sum(
                t / (2 * k * y ** (2 * k)) for k, t in enumerate(terms, 1))
            return float(series - shifted)
        series = 1 / y + 1 / (2 * y * y) + sum(
            t / y ** (2 * k + 1) for k, t in enumerate(terms, 1))
        return float(series + shifted)

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

    @pytest.mark.parametrize("z", _grid())
    def test_reference_and_scipy(self, z):
        assert digamma(z) == polygamma_reference(0, z)
        assert _ulps(digamma(z), scipy.special.digamma(z)) <= 2

    def test_returns_a_float(self):
        assert type(digamma(1.0)) is float and digamma(1.0) == pytest.approx(-EULER)


class TestTrigamma:
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 1.5, 2.0, 6.5, 40.0])
    def test_hurwitz_oracle(self, z):
        # psi'(z) is the Hurwitz zeta(2, z), here summed directly; the
        # oracle is within a few ulps of it, see trigamma_sum
        assert trigamma(z) == pytest.approx(trigamma_sum(z), rel=1e-14)

    @pytest.mark.parametrize("z", _grid())
    def test_reference_and_scipy(self, z):
        assert trigamma(z) == polygamma_reference(1, z)
        assert _ulps(trigamma(z), scipy.special.polygamma(1, z)) <= 3

    def test_half_closed_form(self):
        # the float pi^2/2 is psi'(1/2) correctly rounded; scipy's is 1 ulp high
        assert trigamma(0.5) == math.pi ** 2 / 2
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_recurrence(self):
        for z in (0.3, 1.7):
            lhs = trigamma(z + 1)
            assert lhs == pytest.approx(trigamma(z) - 1 / z ** 2, rel=1e-12)


class TestBetaCdfLogit:
    @pytest.mark.parametrize("a, b", CHECK_SHAPES)
    def test_scipy_at_the_checks_shapes(self, a, b):
        np.testing.assert_allclose(beta_cdf_logit(a, b, LOGITS),
                                   betainc_logit(a, b, LOGITS), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("a, b", LARGE_SHAPES)
    def test_scipy_up_to_theta_100(self, a, b):
        np.testing.assert_allclose(beta_cdf_logit(a, b, LOGITS),
                                   betainc_logit(a, b, LOGITS), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s", [0.01, 0.5, 1.0, 1.5, 1.99, 3.2])
    def test_closed_forms(self, s):
        # I_x(s, 1) = x^s and I_x(1, s) = 1 - (1 - x)^s, with log x and
        # log(1 - x) from the logit
        with np.errstate(under="ignore"):
            log_x = -np.logaddexp(0.0, -LOGITS)
            log_y = -np.logaddexp(0.0, LOGITS)
            np.testing.assert_allclose(beta_cdf_logit(s, 1.0, LOGITS), np.exp(s * log_x),
                                       rtol=0, atol=1e-14)
        np.testing.assert_allclose(beta_cdf_logit(1.0, s, LOGITS), -np.expm1(s * log_y),
                                   rtol=0, atol=1e-14)

    def test_arcsine_law(self):
        # I_x(1/2, 1/2) = (2/pi) arcsin sqrt(x) = (2/pi) arctan e^{v/2}, since
        # x / (1 - x) = e^v; the arctan keeps its digits near x = 1
        np.testing.assert_allclose(beta_cdf_logit(0.5, 0.5, LOGITS),
                                   2.0 / math.pi * np.arctan(np.exp(LOGITS / 2.0)),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("a, b", CHECK_SHAPES + LARGE_SHAPES)
    def test_symmetry(self, a, b):
        total = beta_cdf_logit(a, b, LOGITS) + beta_cdf_logit(b, a, -LOGITS)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=4e-15)

    def test_shapes_and_limits(self):
        assert beta_cdf_logit(2.0, 3.0, 0.3).shape == ()
        v = np.array([[-np.inf, -800.0], [800.0, np.inf]])
        np.testing.assert_array_equal(beta_cdf_logit(2.0, 1.5, v), [[0.0, 0.0], [1.0, 1.0]])

    def test_unconverged_fraction_raises(self):
        # at a = b = 1e8 and x = 1/2 the fraction needs about sqrt(a) = 1e4
        # terms, past the bound
        with pytest.raises(RuntimeError, match="failed to converge"):
            beta_cdf_logit(1e8, 1e8, np.array([-1.0, 0.0, 1.0]))


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
        assert trigamma(0.5) + trigamma(1.5) == pytest.approx(
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
            increment_var = (trigamma(p.theta + p.alpha)
                             + trigamma(p.theta - p.alpha))
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
