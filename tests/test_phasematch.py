"""Longitudinal spectra, the calibrated Gaussian stand-in, and the
anti-diagonal densities, checked against scipy routes and frozen values."""

import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    ALPHA_CALIBRATED,
    SINC_1E_ABSCISSA,
    e1_position_radial,
    profile_momentum_radial,
    quad_osc,
    si,
    sinc_momentum_radial,
    si_position_radial,
    table_position_marginal,
)

import spdc_coherence
from spdc_coherence import phasematch
from spdc_coherence.errors import ParseError, UnknownChoice
from spdc_coherence.numerics import exp1_i
from spdc_coherence.params import CrystalParams
from spdc_coherence.phasematch import (
    EXACT_SINC,
    GAUSSIAN_APPROX,
    NonlinearityProfile,
    PhaseMatchModel,
    calibrate_alpha,
    chi_tilde,
    chi_tilde_profile,
    chi_tilde_sinc,
    _FAR_COEFFS,
    _NEAR,
    _minus_key,
    _position_kernel,
    _position_table,
    load_profile,
    momentum_radial_density,
    position_radial_density,
    variance_q_minus,
    variance_rho_minus,
)

K_P, L = 10.0, 1000.0
C_EXIT = CrystalParams(L=L, k_p=K_P)  # z0 defaults to L
C_MID = CrystalParams(L=L, k_p=K_P, z0=L / 2.0)
POLED_PAIR = PhaseMatchModel.from_profile(NonlinearityProfile.alternating(2, 500.0))


def _pdf_q(q, c, m):
    return momentum_radial_density(c, m).pdf(q)


def _pdf_rho(rho, c, m):
    return position_radial_density(c, m).pdf(rho)


class TestCalibration:
    def test_frozen_value(self):
        assert abs(calibrate_alpha() - ALPHA_CALIBRATED) < 1e-12

    def test_residual(self):
        alpha = calibrate_alpha()
        assert abs(math.sin(1.0 / alpha) * alpha - math.exp(-1.0)) < 1e-9

    def test_rounds_to_default(self):
        assert round(calibrate_alpha(), 3) == 0.455

    def test_abscissa(self):
        assert abs(1.0 / calibrate_alpha() - SINC_1E_ABSCISSA) < 1e-12


class TestChiTildeSinc:
    def test_first_zero(self):
        assert abs(chi_tilde_sinc(2.0 * math.pi / L, C_EXIT)) < 1e-15

    def test_centred_is_real(self):
        vals = chi_tilde_sinc(np.linspace(0.0, 0.1, 50), C_MID)
        assert np.all(vals.imag == 0.0)

    def test_modulus_free_of_geometry(self):
        dks = np.linspace(0.0, 0.05, 40)
        a = np.abs(chi_tilde_sinc(dks, C_EXIT))
        b = np.abs(chi_tilde_sinc(dks, C_MID))
        assert np.allclose(a, b, rtol=1e-14, atol=0.0)

    def test_dc_value(self):
        assert chi_tilde_sinc(0.0, C_EXIT) == 1.0 + 0.0j

    def test_exit_face_phase(self):
        dk = 3e-3
        got = chi_tilde_sinc(dk, C_EXIT)
        want = complex(math.cos(dk * L / 2.0), math.sin(dk * L / 2.0)) * (
            math.sin(dk * L / 2.0) / (dk * L / 2.0)
        )
        assert got == pytest.approx(want, rel=1e-13)


class TestGaussianModel:
    def test_matches_sinc_at_calibrated_abscissa(self):
        # both moduli hit 1/e at dk = 2 x* / L when alpha is the calibrated one
        c = CrystalParams(L=L, k_p=K_P, alpha=calibrate_alpha())
        dk = 2.0 * SINC_1E_ABSCISSA / L
        assert abs(abs(chi_tilde(dk, c, GAUSSIAN_APPROX)) - abs(chi_tilde(dk, c, EXACT_SINC))) < 1e-6

    def test_q_parametrization(self):
        # at dk = q^2/k_p the Gaussian model is exp[(i - alpha) q^2 L / (2 k_p)]
        q = 0.07
        got = chi_tilde(q * q / K_P, C_EXIT, GAUSSIAN_APPROX)
        want = cmath.exp((1j - C_EXIT.alpha) * q * q * L / (2.0 * K_P))
        assert got == pytest.approx(want, rel=1e-14)

    def test_variance_product_identity(self):
        # Dq^2 * Drho^2 = (1 + alpha^-2)/4, whatever L and k_p
        for alpha in (0.2, 0.455, 1.0, 3.0):
            c = CrystalParams(L=321.0, k_p=7.0, alpha=alpha)
            got = variance_q_minus(c) * variance_rho_minus(c)
            assert got == pytest.approx((1.0 + alpha**-2) / 4.0, rel=1e-14)


class TestProfiles:
    def test_boxcar_reproduces_sinc(self):
        c = CrystalParams(L=777.0, k_p=K_P, z0=300.0)
        prof = NonlinearityProfile.boxcar(c)
        rng = random.Random(621)
        for _ in range(60):
            dk = rng.uniform(-20.0, 20.0) * math.pi / c.L
            a = chi_tilde_profile(dk, prof)
            b = c.L * chi_tilde_sinc(dk, c)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_boxcar_small_mismatch(self):
        prof = NonlinearityProfile.boxcar(C_EXIT)
        for dk in (0.0, 1e-12, 1e-8, -1e-9):
            a = chi_tilde_profile(dk, prof)
            b = L * chi_tilde_sinc(dk, C_EXIT)
            assert abs(a - b) < 1e-9  # series branch vs sinc series

    def test_series_handoff_continuity(self):
        prof = NonlinearityProfile(((0.0, 50.0, 1.0),))
        edge = 1e-5 / 50.0  # |dk| h crosses the Taylor switch here
        lo = chi_tilde_profile(edge * (1.0 - 1e-6), prof)
        hi = chi_tilde_profile(edge * (1.0 + 1e-6), prof)
        assert abs(lo - hi) < 1e-8 * abs(lo)

    def test_zero_amplitude_segment_adds_nothing(self):
        dk = np.linspace(-0.3, 0.3, 41)
        gapped = NonlinearityProfile(((0.0, 50.0, 1.0), (80.0, 100.0, -1.0)))
        filled = NonlinearityProfile(((0.0, 50.0, 1.0), (50.0, 80.0, 0.0), (80.0, 100.0, -1.0)))
        assert np.array_equal(chi_tilde_profile(dk, filled), chi_tilde_profile(dk, gapped))

    def test_dc_is_signed_area(self):
        assert chi_tilde_profile(0.0, NonlinearityProfile.alternating(4, 25.0)) == 0.0 + 0.0j
        assert chi_tilde_profile(0.0, NonlinearityProfile.boxcar(C_EXIT)).real == pytest.approx(L)

    def test_alternating_layout(self):
        prof = NonlinearityProfile.alternating(3, 10.0, z_start=5.0, chi2=2.0)
        assert prof.segments == ((5.0, 15.0, 2.0), (15.0, 25.0, -2.0), (25.0, 35.0, 2.0))
        assert prof.edges == ((5.0, 15.0, 25.0, 35.0), (2.0, -4.0, 4.0, -2.0))
        assert repr(prof) == f"NonlinearityProfile(segments={prof.segments!r})"
        assert prof.extent == (5.0, 35.0)
        assert prof.min_segment_length == 10.0

    @pytest.mark.parametrize(
        "segments",
        [
            ((0.0, 60.0, 1.0), (60.0, 100.0, 1.0)),  # cut at equal chi2
            ((0.0, 100.0, 1.0), (100.0, 130.0, 0.0)),  # padded at the end
            ((-10.0, 0.0, 0.0), (0.0, 100.0, 1.0)),  # padded at the start
        ],
        ids=["cut", "pad_end", "pad_start"],
    )
    def test_edges_ignore_how_chi2_is_cut(self, segments):
        """The edges, and the extent and shortest gap read from them, are
        those of chi2 itself; equality and hashing stay on the segments."""
        whole = NonlinearityProfile(((0.0, 100.0, 1.0),))
        cut = NonlinearityProfile(segments)
        assert cut.edges == whole.edges == ((0.0, 100.0), (1.0, -1.0))
        assert cut.extent == (0.0, 100.0)
        assert cut.min_segment_length == 100.0
        assert cut != whole and cut == NonlinearityProfile(segments)
        assert hash(cut) == hash(NonlinearityProfile(segments))

    def test_shortest_gap_counts_gaps_in_chi2(self):
        prof = NonlinearityProfile(((0.0, 50.0, 1.0), (52.0, 100.0, -1.0)))
        assert prof.min_segment_length == 2.0

    def test_segments_sorted(self):
        prof = NonlinearityProfile(((10.0, 20.0, 1.0), (0.0, 10.0, -1.0)))
        assert prof.segments[0][0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NonlinearityProfile(())
        with pytest.raises(ValueError):
            NonlinearityProfile(((0.0, 0.0, 1.0),))  # zero length
        with pytest.raises(ValueError):
            NonlinearityProfile(((0.0, 10.0, 1.0), (5.0, 15.0, 1.0)))  # overlap
        with pytest.raises(ValueError):
            NonlinearityProfile(((0.0, 10.0, 0.0),))  # no nonlinearity at all
        with pytest.raises(ValueError):
            NonlinearityProfile(((0.0, math.inf, 1.0),))

    def test_model_wiring(self):
        with pytest.raises(UnknownChoice, match="model kind 'boxcar'"):
            PhaseMatchModel("boxcar")
        with pytest.raises(ValueError):
            PhaseMatchModel("profile")  # missing the profile itself
        with pytest.raises(ValueError):
            PhaseMatchModel("sinc", NonlinearityProfile.boxcar(C_EXIT))
        m = PhaseMatchModel.from_profile(NonlinearityProfile.boxcar(C_EXIT))
        assert m.kind == "profile"


class TestLoadProfile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text(
            "z_start,z_end,chi2\n# poled pair\n0,50,1\n50,100,-1\n", encoding="utf-8"
        )
        prof = load_profile(path)
        assert prof.segments == ((0.0, 50.0, 1.0), (50.0, 100.0, -1.0))

    def test_no_header_needed(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("0,100,1\n", encoding="utf-8")
        assert load_profile(path).extent == (0.0, 100.0)

    @pytest.mark.parametrize("first", ["0,500,1x", "0,5OO,1", "z_start,500,1"])
    def test_first_row_with_a_number_is_not_a_header(self, tmp_path, first):
        """A typo in the first row is an error, not a header to skip: only
        a row none of whose fields is a number can be the header."""
        path = tmp_path / "prof.csv"
        path.write_text(f"{first}\n500,1000,-1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":1: cannot parse row"):
            load_profile(path)

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("\ufeff0,500,1\n500,1000,-1\n", encoding="utf-8")
        assert load_profile(path).segments == ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0))

    def test_header_after_comment(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("# poled pair\nz_start,z_end,chi2\n0,50,1\n50,100,-1\n", encoding="utf-8")
        assert load_profile(path).segments == ((0.0, 50.0, 1.0), (50.0, 100.0, -1.0))

    def test_bad_row_line_number(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("0,50,1\n0,bad,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_profile(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("0,50\n", encoding="utf-8")
        with pytest.raises(ParseError, match="3 comma-separated"):
            load_profile(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no profile segments"):
            load_profile(path)

    def test_invalid_geometry_reported(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("0,50,1\n25,75,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="overlap"):
            load_profile(path)


class TestMomentumDensity:
    def test_gauss_closed_form(self):
        a = 0.455 * L / K_P
        q = np.array([0.0, 0.05, 0.2])
        want = a / math.pi * np.exp(-a * q * q)
        np.testing.assert_allclose(_pdf_q(q, C_EXIT, GAUSSIAN_APPROX), want, rtol=1e-14, atol=0.0)

    def test_sinc_against_scipy(self):
        q = np.array([0.0, 0.05, 0.1, 0.3])
        # both normalize by the exact pi^2 k_p / L
        np.testing.assert_allclose(
            _pdf_q(q, C_EXIT, EXACT_SINC), sinc_momentum_radial(q, L, K_P), rtol=1e-12, atol=0.0
        )

    def test_peak_value(self):
        want = L / (math.pi**2 * K_P)
        assert float(_pdf_q(0.0, C_EXIT, EXACT_SINC)) == pytest.approx(want, rel=1e-12)

    def test_peak_ratio_gauss_over_sinc(self):
        ratio = float(_pdf_q(0.0, C_EXIT, GAUSSIAN_APPROX) / _pdf_q(0.0, C_EXIT, EXACT_SINC))
        assert ratio == pytest.approx(math.pi * 0.455, rel=1e-12)

    def test_geometry_free(self):
        q = np.array([0.0, 0.08, 0.2])
        assert np.array_equal(_pdf_q(q, C_EXIT, EXACT_SINC), _pdf_q(q, C_MID, EXACT_SINC))

    def test_vector_argument(self):
        # an array of radii of any shape reads the pdf elementwise, as a
        # 2D radius sqrt(q_x^2 + q_y^2) of a grid does
        q = 0.1 / math.sqrt(2.0)
        radii = np.hypot.outer([q, 0.0], [q, 0.1])
        got = _pdf_q(radii, C_EXIT, EXACT_SINC)
        assert got.shape == (2, 2)
        assert got[0, 0] == pytest.approx(float(_pdf_q(0.1, C_EXIT, EXACT_SINC)), rel=1e-12)
        assert got[1, 1] == float(_pdf_q(0.1, C_EXIT, EXACT_SINC))

    def test_marginal_vanishes_where_the_kernel_argument_overflows(self):
        """Sinc's one lag gives kernel arguments x = 10 t here, and from
        x = 2^512 on x^2 overflows: the kernel takes its limit 0 there, as
        at t = inf, instead of NaN with an overflow warning."""
        marginal = momentum_radial_density(C_EXIT, EXACT_SINC).marginal
        assert marginal(np.array([1e160, 1e200, np.inf])).tolist() == [0.0, 0.0, 0.0]

    # The density is |chi(q^2/k_p)|^2 / norm_q evaluated exactly at every
    # radius, beyond the window too.  Both sides normalize by the exact
    # Parseval norm, so only rounding in the spectrum's phases separates
    # the two.
    @staticmethod
    def _against_oracle(model, segments):
        rd = momentum_radial_density(C_EXIT, model)
        # out to three times the corner radius sqrt2 half_range of the
        # marginal's window
        q = np.linspace(0.0, 3.0 * math.sqrt(2.0) * rd.half_range, 200001)
        want = profile_momentum_radial(q, K_P, segments)
        got = rd.pdf(q)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)  # observed 9e-16
        assert np.max(got[q > math.sqrt(2.0) * rd.half_range]) > 0.0

    @pytest.mark.parametrize(
        "model,segments",
        [
            (EXACT_SINC, ((0.0, L, 1.0 / L),)),
            (PhaseMatchModel.from_profile(NonlinearityProfile.alternating(2, 500.0)),
             ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0))),
            (PhaseMatchModel.from_profile(NonlinearityProfile.alternating(8, 125.0)),
             tuple((125.0 * k, 125.0 * (k + 1), (-1.0) ** k) for k in range(8))),
        ],
        ids=["sinc", "poled_pair", "alternating_8"],
    )
    def test_table_against_oracle(self, model, segments):
        self._against_oracle(model, segments)

    def test_profile_too_fine_to_tabulate(self):
        """A 1 um segment beside a 999 um one, which a table uniform in dk
        could not hold: the density needs no table and is exact."""
        segments = ((0.0, 999.0, 1.0), (999.0, 1000.0, -1.0))
        self._against_oracle(PhaseMatchModel.from_profile(NonlinearityProfile(segments)), segments)


class TestPositionDensity:
    def test_centred_against_scipy(self):
        rho = np.array([0.0, 3.0, 10.0, 25.0])
        np.testing.assert_allclose(
            _pdf_rho(rho, C_MID, EXACT_SINC), si_position_radial(rho, L, K_P), rtol=3e-4, atol=0.0
        )

    def test_centred_peak(self):
        assert float(_pdf_rho(0.0, C_MID, EXACT_SINC)) == pytest.approx(K_P / (4.0 * L), rel=2e-4)

    def test_gauss_closed_form(self):
        var = variance_rho_minus(C_EXIT)
        got = float(_pdf_rho(0.0, C_EXIT, GAUSSIAN_APPROX))
        assert got == pytest.approx(1.0 / (2.0 * math.pi * var), rel=1e-14)

    def test_table_route_agrees_with_closed_form(self):
        """A centred boxcar profile takes the profile route (its own segment
        amplitude and momentum norm); it has to reproduce the sinc model
        (peak-scaled: the density has near zeros where pointwise relative
        error means nothing)."""
        prof = PhaseMatchModel.from_profile(NonlinearityProfile.boxcar(C_MID))
        rhos = np.linspace(0.0, 3.0 * math.sqrt(L / K_P), 97)
        table = _pdf_rho(rhos, C_MID, prof)
        closed = _pdf_rho(rhos, C_MID, EXACT_SINC)
        assert np.max(np.abs(table - closed)) / closed[0] < 2e-3  # observed 2e-7

    def test_exit_face_differs_from_centred(self):
        rhos = np.linspace(0.0, 4.0 * math.sqrt(L / K_P), 80)
        exit_vals = _pdf_rho(rhos, C_EXIT, EXACT_SINC)
        mid_vals = _pdf_rho(rhos, C_MID, EXACT_SINC)
        assert np.max(np.abs(exit_vals - mid_vals)) / np.max(mid_vals) > 0.01

    def test_one_e1_per_edge(self, monkeypatch):
        """The amplitude -sum_e sigma_e E1(i kappa/z_e) takes one E1 pass per
        edge of chi2 off z = 0: 250 for a 250-segment stack from 0."""
        calls = []

        def counting(x):
            calls.append(np.shape(x))
            return exp1_i(x)

        monkeypatch.setattr(phasematch, "exp1_i", counting)
        prof = NonlinearityProfile.alternating(250, 4.0)
        _position_kernel(np.linspace(1.0, 50.0, 64), K_P, prof, prof)
        assert calls == [(64,)] * 250

    def test_edge_form_against_mpmath(self):
        """The closed form of alternating(250, 4) against
        (k_p/2)^2 |sum_e sigma_e E1(i kappa/z_e)|^2 / (pi^2 k_p L) summed in
        40-digit mpmath (edges 4e for e = 0..250, jumps +1 at both ends and
        -2, +2, ... between), stored as hex, to 1e-14 of the largest pinned value
        (observed 4.2e-15; two E1 passes per segment err by 5.9e-15)."""
        rho = np.array([1.0, 1.75, 3.0, 5.5, 9.0, 16.0, 30.0, 50.0])
        want = np.array([float.fromhex(h) for h in (
            "0x1.7042dbdc06352p-13", "0x1.97dec1f4e4940p-14", "0x1.c9a98a3a7c01ap-14",
            "0x1.392818823a7d4p-14", "0x1.3e5f7d58196f3p-15", "0x1.b7f1c5b672e3cp-17",
            "0x1.5844206127065p-17", "0x1.703560c9c0444p-19",
        )])
        prof = NonlinearityProfile.alternating(250, 4.0)
        got = _position_kernel(rho, K_P, prof, prof)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

    def test_beyond_table_is_zero(self):
        assert float(_pdf_rho(1e6, C_EXIT, EXACT_SINC)) == 0.0

    # Both sides normalize by the exact Parseval norm, so the tolerance is
    # the interpolation bound alone, relative to the largest oracle value
    # on the tested radii: linear interpolation between table nodes errs
    # by at most h^2/8 max|f''|, evaluated on the oracle over [1, 50] um:
    # 5.1e-5 (exit face), 1.2e-5 (z0 = 1.5 L), 7.0e-5 (poled pair).  Each
    # tolerance is that bound rounded up by about half.
    @pytest.mark.parametrize(
        "c,model,segments,tol",
        [
            (C_EXIT, EXACT_SINC, ((0.0, L, 1.0 / L),), 8e-5),
            (CrystalParams(L=L, k_p=K_P, z0=1.5 * L), EXACT_SINC, ((0.5 * L, 1.5 * L, 1.0 / L),), 2e-5),
            (C_EXIT, PhaseMatchModel.from_profile(NonlinearityProfile.alternating(2, 500.0)),
             ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0)), 1.1e-4),
        ],
        ids=["exit_face", "z0_1.5L", "poled_pair"],
    )
    def test_table_against_e1_oracle(self, c, model, segments, tol):
        rhos = np.linspace(0.1, 5.0, 400) * math.sqrt(L / K_P)
        want = e1_position_radial(rhos, K_P, segments)
        got = position_radial_density(c, model).pdf(rhos)
        assert np.max(np.abs(got - want)) / np.max(want) < tol


class TestPositionMarginalKernel:
    """The position marginal sums near nodes in closed form and far nodes
    through a series; both together must reproduce the plain sum over
    every node to 1e-14 of the marginal's peak."""

    @pytest.mark.parametrize(
        "c,model",
        [
            (C_EXIT, EXACT_SINC),
            (C_MID, EXACT_SINC),
            (CrystalParams(L=L, k_p=K_P, z0=1.5 * L), EXACT_SINC),
            (C_EXIT, POLED_PAIR),
            (C_EXIT, PhaseMatchModel.from_profile(NonlinearityProfile.alternating(8, 125.0))),
            (CrystalParams(L=0.01, k_p=K_P), EXACT_SINC),
            (CrystalParams(L=3e5, k_p=K_P), EXACT_SINC),
        ],
        ids=["exit", "centred", "z0_1.5L", "poled_pair", "alternating8", "L_0.01um", "L_3e5um"],
    )
    def test_matches_plain_sum(self, c, model):
        nodes, vals = _position_table(*_minus_key(c, model, "position"))
        big_r = float(nodes[-1])
        marginal = position_radial_density(c, model).marginal
        table = np.linspace(0.0, big_r, 4097)
        peak = np.max(table_position_marginal(nodes, vals, table))
        beyond = np.random.default_rng(19).uniform(0.0, 1.25 * big_r, 3000)
        for t in (table, beyond, np.array([0.0, 1e-300, 1e-9 * big_r])):
            err = np.max(np.abs(marginal(t) - table_position_marginal(nodes, vals, t)))
            assert err <= 1e-14 * peak
        # offsets that share a node group with many others read the same bits alone
        assert marginal(table)[::64].tolist() == [float(marginal(t)) for t in table[::64]]

    def test_series_reaches_the_near_edge(self):
        """phi(u) = sqrt(1 - u^2) - u^2 arccosh(1/u) by its series at the
        largest u a far node sees, u = 1/_NEAR, to 1e-15 relative: this is
        what fixes the number of series terms."""
        u = 1.0 / _NEAR
        x = u * u
        tail = math.fsum(a * x**k for k, a in enumerate(_FAR_COEFFS.tolist(), start=2))
        series = 1.0 - x * (0.5 + math.log(2.0) - math.log(u)) + tail
        exact = math.sqrt(1.0 - x) - x * math.acosh(1.0 / u)
        assert abs(series - exact) <= 1e-15 * exact


class TestRadialDensities:
    @pytest.mark.parametrize(
        "maker,c,model",
        [
            (momentum_radial_density, C_EXIT, EXACT_SINC),
            (momentum_radial_density, C_EXIT, GAUSSIAN_APPROX),
            (momentum_radial_density, C_EXIT,
             PhaseMatchModel.from_profile(NonlinearityProfile.alternating(8, 125.0))),
            (position_radial_density, C_EXIT, EXACT_SINC),
            (position_radial_density, C_MID, EXACT_SINC),
            (position_radial_density, C_EXIT, GAUSSIAN_APPROX),
        ],
    )
    def test_unit_mass(self, maker, c, model):
        rd = maker(c, model)
        r = np.linspace(0.0, rd.half_range, 200001)
        mass = 2.0 * math.pi * float(np.trapezoid(r * rd.pdf(r), r))
        assert abs(mass - 1.0) < 1e-3

    def test_sigma_only_for_gaussians(self):
        assert momentum_radial_density(C_EXIT, GAUSSIAN_APPROX).sigma == pytest.approx(
            math.sqrt(variance_q_minus(C_EXIT))
        )
        assert momentum_radial_density(C_EXIT, EXACT_SINC).sigma is None

    @pytest.mark.parametrize("c", [C_EXIT, C_MID], ids=["exit", "centred"])
    @pytest.mark.parametrize(
        "model",
        [EXACT_SINC, GAUSSIAN_APPROX,
         PhaseMatchModel.from_profile(NonlinearityProfile.alternating(8, 125.0)), POLED_PAIR],
        ids=["sinc", "gauss", "profile", "poled_pair"],
    )
    @pytest.mark.parametrize(
        "radial,scale",
        [(momentum_radial_density, math.sqrt(K_P / L)),
         (position_radial_density, math.sqrt(L / K_P))],
        ids=["momentum", "position"],
    )
    def test_pdf_matches_pointwise(self, radial, scale, model, c):
        """The pdf gives the same bits on an array as one radius at a time,
        and so does the 1D marginal that every radial density carries: a
        value never depends on the other points of the call."""
        rd = radial(c, model)
        radii = scale * np.array([0.0, 0.37, 1.0, 2.5, 7.0])
        assert rd.pdf(radii).tolist() == [float(rd.pdf(r)) for r in radii]
        assert rd.marginal(radii).tolist() == [float(rd.marginal(r)) for r in radii]


def test_position_grids_need_no_scipy():
    """The package declares numpy as its only dependency: position grids of
    every non-Gaussian route, and the sinc and poled-pair momentum grids
    with their Fresnel marginals, build in an interpreter where importing
    scipy fails."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from spdc_coherence import PumpParams, CrystalParams, evaluate_grid\n"
        "from spdc_coherence.phasematch import EXACT_SINC, NonlinearityProfile, PhaseMatchModel\n"
        "p = PumpParams(w=100.0, k_p=10.0)\n"
        "poled = PhaseMatchModel.from_profile(NonlinearityProfile.alternating(2, 500.0))\n"
        "for z0, m in ((1000.0, EXACT_SINC), (500.0, EXACT_SINC), (1000.0, poled)):\n"
        "    c = CrystalParams(L=1000.0, k_p=10.0, z0=z0)\n"
        "    assert evaluate_grid(p, c, m, 'position', 'rotated').mass > 0.9\n"
        "for m in (EXACT_SINC, poled):\n"
        "    c = CrystalParams(L=1000.0, k_p=10.0)\n"
        "    assert evaluate_grid(p, c, m, 'momentum', 'rotated').mass > 0.9\n"
    )
    env = dict(os.environ)
    src = str(Path(spdc_coherence.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_si_oracle_consistency():
    # the scipy Si behind the oracles agrees with the normalization story:
    # int_0^inf [pi/2 - Si]^2 = pi/2
    val = quad_osc(lambda s: (math.pi / 2.0 - si(s)) ** 2, 0.0, np.inf)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-4)
