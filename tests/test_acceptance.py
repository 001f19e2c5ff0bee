"""Release gate: one test per acceptance criterion, each at its stated
tolerance, each printing a single pass/fail line (visible under -s, and
echoed by pytest -v through the test outcome)."""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
from scipy.special import j0

from oracles import BOUNDARY_TYPE1, BOUNDARY_TYPE2

from spdc_coherence import entanglement, joint, phasematch, pump
from spdc_coherence.params import CrystalParams, PumpParams

K_P = 10.0


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_variances_from_grids():
    """All four closed-form variances reproduced by grid moments within 1%
    over a 3x3x3 decade sweep, under 30 s."""
    t0 = time.time()
    worst = 0.0
    for w in (1.0, 31.6, 1000.0):
        for ell_c in (1.0, 31.6, 1000.0):
            for L in (10.0, 316.0, 10000.0):
                p = PumpParams(w=w, k_p=K_P, ell_c=ell_c)
                c = CrystalParams(L=L, k_p=K_P)
                targets = {
                    "momentum": (pump.variance_q_plus(p), phasematch.variance_q_minus(c)),
                    "position": (pump.variance_rho_plus(p), phasematch.variance_rho_minus(c)),
                }
                for space, (vp, vm) in targets.items():
                    g = joint.evaluate_grid(p, c, phasematch.GAUSSIAN_APPROX, space, "rotated")
                    dp, dm = joint.widths_from_grid(g)
                    worst = max(worst, abs(dp * dp - vp) / vp, abs(dm * dm - vm) / vm)
    elapsed = time.time() - t0
    _report(1, worst < 0.01 and elapsed < 30.0,
            f"worst variance error {worst:.2e} (tol 1e-2), {elapsed:.1f} s (limit 30)")


def test_criterion_2_alpha_calibration():
    alpha = phasematch.calibrate_alpha()
    residual = abs(math.sin(1.0 / alpha) * alpha - math.exp(-1.0))
    ok = round(alpha, 3) == 0.455 and residual < 1e-9
    _report(2, ok, f"alpha={alpha:.10f} rounds to 0.455, residual {residual:.1e} (tol 1e-9)")


def test_criterion_3_coherence_independence():
    w, L = 100.0, 1000.0
    c = CrystalParams(L=L, k_p=K_P)
    ell_set = (0.01 * w, w, 100.0 * w, math.inf)
    products = [
        entanglement.product_pm(PumpParams(w=w, k_p=K_P, ell_c=e), c) for e in ell_set
    ]
    spread = max(abs(v - products[0]) / products[0] for v in products)
    exports = []
    for e in ell_set:
        p = PumpParams(w=w, k_p=K_P, ell_c=e)
        g = joint.evaluate_grid(p, c, phasematch.EXACT_SINC, "position", "rotated")
        exports.append((g.to_csv(), joint.JointGrid.from_json(g.to_json()).values))
    grids_same = all(
        e[0] == exports[0][0] and np.array_equal(e[1], exports[0][1]) for e in exports
    )
    _report(3, spread < 1e-12 and grids_same,
            f"witness product spread {spread:.1e} (tol 1e-12), "
            f"position grids byte-identical: {grids_same}")


def test_criterion_4_phase_diagram_boundaries():
    alpha = 0.455
    b1 = 2.0 / math.sqrt(alpha)
    b2 = 2.0 / math.sqrt(alpha + 1.0 / alpha)
    const_err = max(abs(b1 - 2.965), abs(b2 - 1.228))
    cells = entanglement.sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 60, 80, alpha)
    x, y = cells.x[:, None], cells.y[None, :]
    want1 = y > BOUNDARY_TYPE1
    want2 = y * y < 4.0 / ((alpha + 1.0 / alpha) * (1.0 + 4.0 * x**2))
    mismatched = int(np.count_nonzero((cells.type1 != want1) | (cells.type2 != want2)))
    dual = int(np.count_nonzero(cells.type1 & cells.type2))
    ok = mismatched == 0 and dual == 0 and const_err < 1e-3
    _report(4, ok,
            f"{cells.type1.size} cells, {mismatched} off-predicate, {dual} dual; "
            f"boundary constants {b1:.4f}/{b2:.4f} within 1e-3 of 2.965/1.228")


def test_criterion_5_momentum_anticorrelation_destruction():
    w, L = 100.0, 1000.0
    c = CrystalParams(L=L, k_p=K_P)
    widths = {}
    for ell_c in (math.inf, w / 10.0):
        p = PumpParams(w=w, k_p=K_P, ell_c=ell_c)
        g = joint.evaluate_grid(p, c, phasematch.EXACT_SINC, "momentum", "rotated")
        widths[ell_c] = joint.widths_from_grid(g)
    anti_change = abs(widths[w / 10.0][1] - widths[math.inf][1]) / widths[math.inf][1]
    diag_ratio = widths[w / 10.0][0] / widths[math.inf][0]
    sense_coherent = entanglement.classify(PumpParams(w=w, k_p=K_P), c).correlation_momentum
    # crossover at ell_c = sqrt(alpha L / k_p) ~ 6.7 um; 5 um sits beyond it
    sense_incoherent = entanglement.classify(
        PumpParams(w=w, k_p=K_P, ell_c=5.0), c
    ).correlation_momentum
    ok = (
        anti_change < 0.01
        and diag_ratio > 10.0
        and sense_coherent == entanglement.ANTI
        and sense_incoherent == entanglement.CORRELATED
    )
    _report(5, ok,
            f"anti-diagonal width change {anti_change:.2e} (tol 1e-2), diagonal x{diag_ratio:.0f} "
            f"(need >10), sense {sense_coherent} -> {sense_incoherent}")


def test_criterion_6_position_density_oracle_and_geometry():
    L = 1000.0
    c_mid = CrystalParams(L=L, k_p=K_P, z0=L / 2.0)
    c_exit = CrystalParams(L=L, k_p=K_P)

    # from-scratch transform: scipy J0, numpy midpoint sum, spectrum built
    # from np.sinc; nothing shared with the package route
    n = 8192
    q_max = math.sqrt(2.0 * 1000.0 * K_P / L)
    h = q_max / n
    q = (np.arange(n) + 0.5) * h
    weights = q * np.sinc((q * q * L / (2.0 * K_P)) / math.pi) * h / (2.0 * math.pi)

    def dens_at(rows):
        return (j0(np.outer(rows, q)) @ weights) ** 2

    r_full = math.sqrt(2.0 * 1000.0 * L / K_P) * np.linspace(0.0, 1.0, 512) ** 2
    norm = 2.0 * math.pi * float(np.trapezoid(r_full * dens_at(r_full), r_full))
    rhos = np.linspace(0.0, 5.0 * math.sqrt(L / K_P), 200)
    dens = dens_at(rhos) / norm
    ref = phasematch.position_radial_density(c_mid, phasematch.EXACT_SINC).pdf(rhos)
    l2 = math.sqrt(float(np.sum((dens - ref) ** 2)) / float(np.sum(ref**2)))

    # rho = 0 is left out: the exit-face density's log-squared peak there
    # would swamp the change in shape
    probe = np.linspace(0.0, 4.0 * math.sqrt(L / K_P), 160)[1:]
    pos_exit = phasematch.position_radial_density(c_exit, phasematch.EXACT_SINC).pdf(probe)
    pos_mid = phasematch.position_radial_density(c_mid, phasematch.EXACT_SINC).pdf(probe)
    pos_dev = float(np.max(np.abs(pos_exit - pos_mid) / np.max(pos_mid)))
    # the momentum density reads |chi| alone, so the modulus is compared on
    # the spectra, which carry z0 in their phase
    dks = np.linspace(0.02, 1.0, 50) ** 2 / K_P
    mom_exit = np.abs(phasematch.chi_tilde_sinc(dks, c_exit)) ** 2
    mom_mid = np.abs(phasematch.chi_tilde_sinc(dks, c_mid)) ** 2
    mom_dev = float(np.max(np.abs(mom_exit - mom_mid) / mom_mid))
    ok = l2 < 1e-3 and pos_dev > 0.01 and mom_dev < 1e-12
    _report(6, ok,
            f"independent-transform L2 {l2:.2e} (tol 1e-3); geometry moves position by "
            f"{pos_dev:.1%} (> 1%) while momentum shifts {mom_dev:.1e} (tol 1e-12)")


def test_criterion_7_uncertainty_identities():
    worst = 0.0
    for w, ell_c, R, L, alpha in (
        (100.0, math.inf, math.inf, 1000.0, 0.455),
        (50.0, 20.0, math.inf, 500.0, 0.455),
        (10.0, 5.0, 2000.0, 100.0, 0.3),
        (200.0, 1000.0, -5000.0, 3000.0, 0.7),
    ):
        p = PumpParams(w=w, k_p=K_P, ell_c=ell_c, R=R)
        c = CrystalParams(L=L, k_p=K_P, alpha=alpha)
        got = entanglement.product_pm(p, c) * entanglement.product_mp(p, c)
        curv = 0.0 if math.isinf(R) else (w * w * K_P / R) ** 2
        coh = 0.0 if math.isinf(ell_c) else (w / ell_c) ** 2
        want = math.sqrt((1.0 + alpha**-2) * (1.0 + 4.0 * curv + 4.0 * coh)) / 4.0
        worst = max(worst, abs(got - want) / want)
    p0 = PumpParams(w=137.0, k_p=K_P)
    coherent_dev = abs(
        math.sqrt(pump.variance_rho_plus(p0) * pump.variance_q_plus(p0)) - 0.5
    )
    ok = worst < 1e-12 and coherent_dev < 1e-15
    _report(7, ok,
            f"product identity off by {worst:.1e} (tol 1e-12); "
            f"coherent diagonal product off 1/2 by {coherent_dev:.1e}")


def test_criterion_8_quasi_phase_matching():
    c = CrystalParams(L=777.0, k_p=K_P, z0=300.0)
    prof = phasematch.NonlinearityProfile.boxcar(c)
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(100):
        dk = rng.uniform(-20.0, 20.0) * math.pi / c.L
        a = phasematch.chi_tilde_profile(dk, prof)
        b = c.L * phasematch.chi_tilde_sinc(dk, c)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), c.L * 1e-6))
    lam = 50.0
    dk_star = math.pi / lam
    two = phasematch.NonlinearityProfile.alternating(2, lam)
    single = phasematch.NonlinearityProfile(((0.0, lam, 1.0),))
    dks = np.linspace(1e-4, 4.0 * dk_star, 4001)
    gain = np.abs(phasematch.chi_tilde_profile(dks, two)) / np.abs(
        phasematch.chi_tilde_profile(dks, single)
    )
    peak_err = abs(float(dks[np.argmax(gain)]) - dk_star) / dk_star
    value_err = abs(abs(phasematch.chi_tilde_profile(dk_star, two)) - 4.0 * lam / math.pi) / (
        4.0 * lam / math.pi
    )
    ok = worst < 1e-12 and peak_err < 1.5e-3 and value_err < 1e-12
    _report(8, ok,
            f"boxcar vs closed form {worst:.1e} over 100 draws (tol 1e-12); "
            f"two-segment gain peaks {peak_err:.1e} from pi/segment")


def test_criterion_9_validate_command(tmp_path):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "spdc_coherence.cli", "validate", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.time() - t0
    report = json.loads((tmp_path / "validate_report.json").read_text(encoding="utf-8"))
    all_passed = all(entry["passed"] for entry in report)
    ok = proc.returncode == 0 and elapsed < 120.0 and all_passed
    _report(9, ok,
            f"validate exit {proc.returncode}, {len(report)} checks, {elapsed:.1f} s (limit 120)")
