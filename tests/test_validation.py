"""The `spdc validate` battery: what it runs, and that its checks catch
the faults they are there for.  Also the Hankel route to the centred
crystal's position density, which the battery ran before the u = 1/z
route replaced it."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import j0

import oracles
from spdc_coherence import joint, phasematch, validation
from spdc_coherence.numerics import hankel0
from spdc_coherence.params import CrystalParams

NAMES = (
    "alpha_calibration",
    "variance_sweep_3x3x3",
    "product_pm_coherence_free",
    "position_grids_coherence_free",
    "phase_diagram_boundaries",
    "momentum_widths_coherence",
    "position_marginal_route",
    "exit_vs_centred_position",
    "uncertainty_identities",
    "profile_boxcar_equals_sinc",
    "poling_peak",
)


def test_run_all_names_and_passes():
    results = validation.run_all()
    assert tuple(r.name for r in results) == NAMES
    assert [r.name for r in results if not r.passed] == []


class TestPositionGridsFault:
    """One grid of the four differs by the least amount a float can; the
    check must see it."""

    @staticmethod
    def _perturb_call(monkeypatch, k, perturb):
        real = joint.evaluate_grid
        calls = []

        def patched(*args, **kwargs):
            g = real(*args, **kwargs)
            calls.append(None)
            return perturb(g) if len(calls) == k + 1 else g

        monkeypatch.setattr(joint, "evaluate_grid", patched)

    @staticmethod
    def _one_ulp_cell(g):
        v = g.values.copy()
        i, j = np.unravel_index(np.argmax(v), v.shape)
        v[i, j] = np.nextafter(v[i, j], math.inf)
        return dataclasses.replace(g, values=v)

    @staticmethod
    def _shifted_axis2(g):
        ax = g.axis2
        shifted = dataclasses.replace(
            ax, lo=float(np.nextafter(ax.lo, math.inf)), hi=float(np.nextafter(ax.hi, math.inf))
        )
        return dataclasses.replace(g, axis2=shifted)

    def test_unperturbed_passes(self, monkeypatch):
        self._perturb_call(monkeypatch, 0, lambda g: g)
        assert validation.check_position_grids_coherence_free().passed

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_ulp_cell_fails(self, monkeypatch, k):
        self._perturb_call(monkeypatch, k, self._one_ulp_cell)
        assert not validation.check_position_grids_coherence_free().passed

    @pytest.mark.parametrize("k", [0, 2])
    def test_shifted_axis_fails(self, monkeypatch, k):
        self._perturb_call(monkeypatch, k, self._shifted_axis2)
        assert not validation.check_position_grids_coherence_free().passed

    def test_lossy_json_round_trip_fails(self, monkeypatch):
        real = joint.JointGrid.from_json.__func__
        monkeypatch.setattr(
            joint.JointGrid,
            "from_json",
            classmethod(lambda cls, text: self._one_ulp_cell(real(cls, text))),
        )
        assert not validation.check_position_grids_coherence_free().passed


class TestPositionRouteFault:
    """The u = 1/z check must see an E1 off by 1e-4, a position table on
    half its nodes and joint's factor tabulated at half its offsets; the
    Hankel check passed the first.  The check reads
    joint's cached factor, so each test starts and ends with that cache
    empty: no faulty factor outlives its test."""

    @pytest.fixture(autouse=True)
    def _fresh_factors(self):
        joint._minus_marginal.cache_clear()
        yield
        joint._minus_marginal.cache_clear()

    def test_unperturbed_passes(self):
        assert validation.check_position_marginal_route().passed

    def test_scaled_e1_fails(self, monkeypatch):
        real = phasematch.exp1_i
        monkeypatch.setattr(phasematch, "exp1_i", lambda x: real(x) * (1.0 + 1e-4))
        assert not validation.check_position_marginal_route().passed

    def test_coarse_table_fails(self, monkeypatch):
        monkeypatch.setattr(phasematch, "_TABLE_NODES", 1024)
        assert not validation.check_position_marginal_route().passed

    def test_sparse_factor_offsets_fail(self, monkeypatch):
        real = joint._position_density

        def every_other_offset(*key):
            radial = real(*key)
            return radial._replace(offsets=radial.offsets[::2])

        monkeypatch.setattr(joint, "_position_density", every_other_offset)
        assert not validation.check_position_marginal_route().passed


def test_centred_pdf_matches_hankel_transform():
    """The E1 closed-form position density of the centred crystal, as the
    package tabulates it, against a from-scratch Hankel transform of the
    spectrum: J0 quadrature shares no code with the E1 kernel.  The
    transform is normalized by Parseval on the spectrum it reads, not by
    phasematch's momentum norm; the norm covers the whole plane, since the
    tail past the compared 5 sqrt(L/k_p) still holds ~2.5% of the mass."""
    L, k_p = 1000.0, 10.0
    spectrum, q_max = oracles.centred_spectrum(L, k_p)
    rhos = np.linspace(0.0, 5.0 * math.sqrt(L / k_p), 200)
    dens = hankel0(spectrum, q_max, rhos) ** 2 / oracles.parseval_norm(spectrum, q_max)
    c = CrystalParams(L=L, k_p=k_p, z0=L / 2.0)
    ref = phasematch.position_radial_density(c, phasematch.EXACT_SINC).pdf(rhos)
    l2 = math.sqrt(float(np.sum((dens - ref) ** 2)) / float(np.sum(ref**2)))
    assert l2 < 1e-3  # observed 3.47e-4


def test_parseval_norm_matches_rho_integral():
    """The Parseval norm of the Hankel oracle against the rho-integral it
    replaced: the squared transform on 1,024 quadratic radii out to
    sqrt(2000 L / k_p), trapezoid, J0 from scipy."""
    L, k_p = 1000.0, 10.0
    spectrum, q_max = oracles.centred_spectrum(L, k_p)
    q = oracles.midpoints(q_max, spectrum.size)
    weights = q * spectrum * (q_max / spectrum.size) / (2.0 * math.pi)
    r_full = math.sqrt(2.0 * 1000.0 * L / k_p) * np.linspace(0.0, 1.0, 1024) ** 2
    # 64 radii at a time keeps the J0 block at 8 MB
    psi = np.concatenate([j0(np.outer(rows, q)) @ weights for rows in np.split(r_full, 16)])
    rho_integral = 2.0 * math.pi * float(np.trapezoid(r_full * psi**2, r_full))
    parseval = oracles.parseval_norm(spectrum, q_max)
    assert abs(parseval - rho_integral) / rho_integral < 1e-4  # observed 1.6e-5
