"""The `spdc validate` battery: what it runs, and that its checks catch
the faults they are there for."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import j0

from spdc_coherence import joint, validation
from spdc_coherence.params import CrystalParams

NAMES = (
    "alpha_calibration",
    "variance_sweep_3x3x3",
    "product_pm_coherence_free",
    "position_grids_coherence_free",
    "phase_diagram_boundaries",
    "momentum_widths_coherence",
    "si_vs_hankel_l2",
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


def test_parseval_norm_matches_rho_integral():
    """The Parseval norm of the Hankel oracle against the rho-integral it
    replaced: the squared transform on 1,024 quadratic radii out to
    sqrt(2000 L / k_p), trapezoid, J0 from scipy."""
    L, k_p = 1000.0, 10.0
    spectrum = validation._centred_spectrum(CrystalParams(L=L, k_p=k_p, z0=L / 2.0))
    q = spectrum.nodes
    weights = q * spectrum.values * spectrum.step / (2.0 * math.pi)
    r_full = math.sqrt(2.0 * 1000.0 * L / k_p) * np.linspace(0.0, 1.0, 1024) ** 2
    # 64 radii at a time keeps the J0 block at 8 MB
    psi = np.concatenate([j0(np.outer(rows, q)) @ weights for rows in np.split(r_full, 16)])
    rho_integral = 2.0 * math.pi * float(np.trapezoid(r_full * psi**2, r_full))
    parseval = validation._parseval_norm(spectrum)
    assert abs(parseval - rho_integral) / rho_integral < 1e-4  # observed 1.6e-5
