"""Schell-model pump: the coherence function's properties, the closed-form
variances against quadratures of it, and the diagonal densities."""

import math

import numpy as np
import pytest

from oracles import quad_osc, schell_gamma, schell_variances

from spdc_coherence.numerics import gaussian_radial, grid_moments
from spdc_coherence.params import PumpParams
from spdc_coherence.pump import variance_q_plus, variance_rho_plus

COHERENT = PumpParams(w=10.0, k_p=10.0)
PARTIAL = PumpParams(w=10.0, k_p=10.0, ell_c=7.0, R=5e3)
CONVERGING = PumpParams(w=10.0, k_p=10.0, ell_c=2.0, R=-800.0)


def _gamma(p, r1, r2) -> complex:
    return complex(schell_gamma(p, r1, r2))


class TestMutualCoherence:
    """The oracle's Gamma is the statement of the pump model that the
    closed-form variances are derived from; it has to keep the model's
    properties."""

    def test_normalization_at_origin(self):
        assert _gamma(PARTIAL, (0.0, 0.0), (0.0, 0.0)) == 1.0 + 0.0j

    def test_diagonal_is_intensity(self):
        # equal arguments: (real) beam profile exp(-rho^2 / (2 w^2))
        r = (3.0, -4.0)
        got = _gamma(PARTIAL, r, r)
        assert got.imag == 0.0
        assert got.real == pytest.approx(math.exp(-25.0 / (2.0 * 100.0)), rel=1e-14)

    def test_closed_form(self):
        # the 2D function is the product of its one-axis factors, which
        # is what lets the variance quadratures below run in 1D
        r1, r2 = (2.0, 1.0), (-1.0, 3.0)
        got = _gamma(PARTIAL, r1, r2)
        want = _gamma(PARTIAL, r1[:1], r2[:1]) * _gamma(PARTIAL, r1[1:], r2[1:])
        assert got == pytest.approx(want, rel=1e-13)

    def test_hermitian_swap(self):
        r1, r2 = (2.0, 1.0), (-1.0, 3.0)
        a = _gamma(PARTIAL, r1, r2)
        b = _gamma(PARTIAL, r2, r1)
        assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_coherent_flat_is_real(self):
        val = _gamma(COHERENT, (2.0, 1.0), (-1.0, 3.0))
        assert val.imag == 0.0

    def test_curvature_sign(self):
        diverging = PumpParams(w=10.0, k_p=10.0, R=5e3)
        converging = PumpParams(w=10.0, k_p=10.0, R=-5e3)
        a = _gamma(diverging, (2.0, 0.0), (1.0, 0.0))
        b = _gamma(converging, (2.0, 0.0), (1.0, 0.0))
        assert a == pytest.approx(b.conjugate(), rel=1e-14)
        assert a.imag != 0.0

    def test_cauchy_schwarz(self):
        r1, r2 = (4.0, 2.0), (-3.0, 1.0)
        bound = math.sqrt(_gamma(PARTIAL, r1, r1).real * _gamma(PARTIAL, r2, r2).real)
        assert abs(_gamma(PARTIAL, r1, r2)) <= bound + 1e-15

    @pytest.mark.parametrize("p", [COHERENT, PARTIAL, CONVERGING], ids=["coherent", "partial", "converging"])
    def test_variances_from_gamma(self, p):
        """rho_plus = (rho_s + rho_i)/sqrt2 with both photons born where the
        pump is, so its variance is twice that of the intensity Gamma(x, x);
        q_plus = (q_s + q_i)/sqrt2 with q_s + q_i the pump's wave vector, so
        its variance is half that of the angular spectrum.  Observed worst
        relative error 1.7e-13."""
        var_x, var_q = schell_variances(p)
        assert abs(2.0 * var_x / variance_rho_plus(p) - 1.0) < 1e-9
        assert abs(0.5 * var_q / variance_q_plus(p) - 1.0) < 1e-9


class TestVariances:
    def test_position_ignores_coherence(self):
        assert variance_rho_plus(COHERENT) == 200.0
        assert variance_rho_plus(PARTIAL) == 200.0

    def test_momentum_term_decomposition(self):
        # (1 + 4(w^4/Rq^4 + w^2/l^2)) / (8w^2) = 1/(8w^2) + 1/(2l^2) + w^2 k_p^2/(2R^2)
        p = PARTIAL
        want = (
            1.0 / (8.0 * p.w**2)
            + 1.0 / (2.0 * p.ell_c**2)
            + p.w**2 * p.k_p**2 / (2.0 * p.R**2)
        )
        assert variance_q_plus(p) == pytest.approx(want, rel=1e-14)

    def test_coherent_limit(self):
        assert variance_q_plus(COHERENT) == 1.0 / (8.0 * 100.0)

    def test_incoherent_limit(self):
        p = PumpParams(w=1e4, k_p=10.0, ell_c=5.0)
        assert variance_q_plus(p) == pytest.approx(1.0 / (2.0 * 25.0), rel=1e-4)

    def test_curvature_sign_drops(self):
        a = variance_q_plus(PumpParams(w=10.0, k_p=10.0, R=5e3))
        b = variance_q_plus(PumpParams(w=10.0, k_p=10.0, R=-5e3))
        assert a == b


class TestDiagonalDensities:
    def test_position_peak(self):
        assert float(gaussian_radial(variance_rho_plus(COHERENT)).pdf(0.0)) == pytest.approx(
            1.0 / (4.0 * math.pi * 100.0), rel=1e-14
        )

    def test_position_normalized(self):
        pdf = gaussian_radial(variance_rho_plus(COHERENT)).pdf
        mass = 2.0 * math.pi * quad_osc(lambda r: r * float(pdf(r)), 0.0, 200.0)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_momentum_normalized(self):
        pdf = gaussian_radial(variance_q_plus(PARTIAL)).pdf
        mass = 2.0 * math.pi * quad_osc(lambda q: q * float(pdf(q)), 0.0, 10.0)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_grid_variances(self):
        """Riemann moments on a wide grid recover both closed-form variances
        to 0.1%."""
        for var in (variance_rho_plus(PARTIAL), variance_q_plus(PARTIAL)):
            half = 8.0 * math.sqrt(var)
            n = 256
            ax = np.linspace(-half, half, n + 1)[:-1] + half / n
            vals = gaussian_radial(var).pdf(np.hypot.outer(ax, ax))
            m = grid_moments(vals, ax, ax)
            assert m.var1 == pytest.approx(var, rel=1e-3)
            assert m.var2 == pytest.approx(var, rel=1e-3)
            assert abs(m.covar) < 1e-6 * var
