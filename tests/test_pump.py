"""Schell-model pump: coherence function, diagonal densities, rotation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import quad_osc

from spdc_coherence.numerics import grid_moments
from spdc_coherence.params import PumpParams
from spdc_coherence.pump import (
    mutual_coherence,
    p_gamma_momentum,
    p_gamma_position,
    rotate_from_pm,
    rotate_to_pm,
    variance_q_plus,
    variance_rho_plus,
)

COHERENT = PumpParams(w=10.0, k_p=10.0)
PARTIAL = PumpParams(w=10.0, k_p=10.0, ell_c=7.0, R=5e3)


def _gamma_reference(p, r1, r2):
    # closed form rebuilt from scratch
    r1 = np.asarray(r1, float)
    r2 = np.asarray(r2, float)
    s1, s2 = float(r1 @ r1), float(r2 @ r2)
    d = r1 - r2
    amp = -(s1 + s2) / (4.0 * p.w**2) - float(d @ d) / (2.0 * p.ell_c**2)
    phase = -(s1 - s2) * p.k_p / (2.0 * p.R)
    return cmath.exp(complex(amp, phase))


class TestMutualCoherence:
    def test_normalization_at_origin(self):
        assert mutual_coherence(PARTIAL, (0.0, 0.0), (0.0, 0.0)) == 1.0 + 0.0j

    def test_diagonal_is_intensity(self):
        # equal arguments: (real) beam profile exp(-rho^2 / (2 w^2))
        r = (3.0, -4.0)
        got = mutual_coherence(PARTIAL, r, r)
        assert got.imag == 0.0
        assert got.real == pytest.approx(math.exp(-25.0 / (2.0 * 100.0)), rel=1e-14)

    def test_closed_form(self):
        r1, r2 = (2.0, 1.0), (-1.0, 3.0)
        got = mutual_coherence(PARTIAL, r1, r2)
        assert got == pytest.approx(_gamma_reference(PARTIAL, r1, r2), rel=1e-13)

    def test_hermitian_swap(self):
        r1, r2 = (2.0, 1.0), (-1.0, 3.0)
        a = mutual_coherence(PARTIAL, r1, r2)
        b = mutual_coherence(PARTIAL, r2, r1)
        assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_coherent_flat_is_real(self):
        val = mutual_coherence(COHERENT, (2.0, 1.0), (-1.0, 3.0))
        assert val.imag == 0.0

    def test_curvature_sign(self):
        diverging = PumpParams(w=10.0, k_p=10.0, R=5e3)
        converging = PumpParams(w=10.0, k_p=10.0, R=-5e3)
        a = mutual_coherence(diverging, (2.0, 0.0), (1.0, 0.0))
        b = mutual_coherence(converging, (2.0, 0.0), (1.0, 0.0))
        assert a == pytest.approx(b.conjugate(), rel=1e-14)
        assert a.imag != 0.0

    def test_cauchy_schwarz(self):
        r1, r2 = (4.0, 2.0), (-3.0, 1.0)
        bound = math.sqrt(
            mutual_coherence(PARTIAL, r1, r1).real * mutual_coherence(PARTIAL, r2, r2).real
        )
        assert abs(mutual_coherence(PARTIAL, r1, r2)) <= bound + 1e-15


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
        assert p_gamma_position(COHERENT, (0.0, 0.0)) == pytest.approx(
            1.0 / (4.0 * math.pi * 100.0), rel=1e-14
        )

    def test_position_normalized(self):
        mass = 2.0 * math.pi * quad_osc(
            lambda r: r * p_gamma_position(COHERENT, (r, 0.0)), 0.0, 200.0
        )
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_momentum_normalized(self):
        mass = 2.0 * math.pi * quad_osc(
            lambda q: q * p_gamma_momentum(PARTIAL, (q, 0.0)), 0.0, 10.0
        )
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_grid_variances(self):
        """Riemann moments on a wide grid recover both closed-form variances
        to 0.1%."""
        for p, fn, var in (
            (PARTIAL, p_gamma_position, variance_rho_plus(PARTIAL)),
            (PARTIAL, p_gamma_momentum, variance_q_plus(PARTIAL)),
        ):
            half = 8.0 * math.sqrt(var)
            n = 256
            ax = np.linspace(-half, half, n + 1)[:-1] + half / n
            vals = np.array([[fn(p, (a, b)) for b in ax] for a in ax])
            m = grid_moments(vals, ax, ax)
            assert m.var1 == pytest.approx(var, rel=1e-3)
            assert m.var2 == pytest.approx(var, rel=1e-3)
            assert abs(m.covar) < 1e-6 * var


class TestRotation:
    def test_known_point(self):
        r = rotate_to_pm((1.0, 0.0), (0.0, 1.0))
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(r.plus, [s, s])
        assert np.allclose(r.minus, [s, -s])

    def test_round_trip(self):
        v_s, v_i = np.array([1.3, -0.2]), np.array([0.7, 2.9])
        back_s, back_i = rotate_from_pm(rotate_to_pm(v_s, v_i))
        assert np.allclose(back_s, v_s, atol=1e-15)
        assert np.allclose(back_i, v_i, atol=1e-15)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4))
    def test_orthogonality(self, flat):
        v_s, v_i = np.array(flat[:2]), np.array(flat[2:])
        r = rotate_to_pm(v_s, v_i)
        before = float(v_s @ v_s + v_i @ v_i)
        after = float(r.plus @ r.plus + r.minus @ r.minus)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-9)
        back_s, back_i = rotate_from_pm(r)
        assert np.allclose(back_s, v_s, rtol=1e-12, atol=1e-9)
        assert np.allclose(back_i, v_i, rtol=1e-12, atol=1e-9)
