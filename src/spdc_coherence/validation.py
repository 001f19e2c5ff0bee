"""Self-validation battery: every closed form against an independent
numerical route, every advertised identity at its stated tolerance.

Each check is standalone and cheap enough that the whole battery stays
well under two minutes; the CLI `validate` command runs them in order
and reports one line per check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import entanglement, joint, phasematch, pump
from .numerics import RadialGrid, hankel0, sinc
from .params import CrystalParams, PumpParams

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    comparison: str = "<"  # how observed relates to tolerance when passing
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.name}: observed {self.observed:.3e} "
            f"{self.comparison} {self.tolerance:.0e}{extra}"
        )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_alpha_calibration() -> CheckResult:
    alpha = phasematch.calibrate_alpha()
    residual = abs(float(sinc(1.0 / alpha)) - math.exp(-1.0))
    rounded_ok = round(alpha, 3) == 0.455
    return CheckResult(
        name="alpha_calibration",
        passed=residual < 1e-9 and rounded_ok,
        observed=residual,
        tolerance=1e-9,
        detail=f"alpha={alpha:.6f}, rounds to 0.455: {rounded_ok}",
    )


def check_variance_sweep() -> CheckResult:
    """Grid moments against the four closed-form variances over a 3x3x3
    sweep of (w, ell_c, L), each spanning three decades.  Gaussian model
    throughout: the exact sinc density has no finite momentum variance."""
    k_p = 10.0
    worst = 0.0
    worst_at = ""
    for w in (1.0, 31.6, 1000.0):
        for ell_c in (1.0, 31.6, 1000.0):
            for L in (10.0, 316.0, 10000.0):
                p = PumpParams(w=w, k_p=k_p, ell_c=ell_c)
                c = CrystalParams(L=L, k_p=k_p)
                targets = {
                    "momentum": (pump.variance_q_plus(p), phasematch.variance_q_minus(c)),
                    "position": (pump.variance_rho_plus(p), phasematch.variance_rho_minus(c)),
                }
                for space, (vp, vm) in targets.items():
                    g = joint.evaluate_grid(p, c, phasematch.GAUSSIAN_APPROX, space, "rotated")
                    dp, dm = joint.widths_from_grid(g)
                    for got, want, tag in ((dp * dp, vp, "plus"), (dm * dm, vm, "minus")):
                        err = _rel(got, want)
                        if err > worst:
                            worst = err
                            worst_at = f"w={w} ell_c={ell_c} L={L} {space}/{tag}"
    return CheckResult(
        name="variance_sweep_3x3x3",
        passed=worst < 0.01,
        observed=worst,
        tolerance=0.01,
        detail=f"worst at {worst_at}",
    )


_ELL_C_SET = (1.0, 100.0, 10000.0, math.inf)  # 0.01 w, w, 100 w, coherent


def check_product_pm_coherence_free() -> CheckResult:
    c = CrystalParams(L=1000.0, k_p=10.0)
    values = [
        entanglement.product_pm(PumpParams(w=100.0, k_p=10.0, ell_c=ell), c)
        for ell in _ELL_C_SET
    ]
    spread = max(_rel(v, values[0]) for v in values)
    return CheckResult(
        name="product_pm_coherence_free",
        passed=spread < 1e-12,
        observed=spread,
        tolerance=1e-12,
        detail=f"product_pm={values[0]:.12g} over ell_c={_ELL_C_SET}",
    )


def check_position_grids_coherence_free() -> CheckResult:
    c = CrystalParams(L=1000.0, k_p=10.0)
    exports = []
    for ell in _ELL_C_SET:
        p = PumpParams(w=100.0, k_p=10.0, ell_c=ell)
        g = joint.evaluate_grid(p, c, phasematch.EXACT_SINC, "position", "rotated")
        exports.append((g.to_csv(), g.to_json()))
    same = all(e[0] == exports[0][0] for e in exports)
    # JSON embeds ell_c in the metadata, so compare values only
    vals = [joint.JointGrid.from_json(e[1]).values for e in exports]
    same = same and all(np.array_equal(v, vals[0]) for v in vals)
    return CheckResult(
        name="position_grids_coherence_free",
        passed=same,
        observed=0.0 if same else 1.0,
        tolerance=0.5,
        detail="CSV bytes and JSON values identical across ell_c",
    )


def check_phase_diagram_boundaries() -> CheckResult:
    alpha = 0.455
    b1 = 2.0 / math.sqrt(alpha)
    b2 = 2.0 / math.sqrt(alpha + 1.0 / alpha)
    const_err = max(abs(b1 - 2.965), abs(b2 - 1.228))
    cells = entanglement.sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 60, 80, alpha)
    bad = 0
    for cell in cells:
        # independent route: realize (x, y) physically and ask the witnesses
        w, k_p = 1.0, 10.0
        p = PumpParams(w=w, k_p=k_p, ell_c=math.inf if cell.x == 0 else w / cell.x)
        c = CrystalParams(L=cell.y * cell.y * k_p * w * w, k_p=k_p, alpha=alpha)
        rep = entanglement.classify(p, c)
        if rep.type1 != cell.type1 or rep.type2 != cell.type2 or (cell.type1 and cell.type2):
            bad += 1
    return CheckResult(
        name="phase_diagram_boundaries",
        passed=bad == 0 and const_err < 1e-3,
        observed=const_err,
        tolerance=1e-3,
        detail=f"{len(cells)} cells, {bad} disagree with witness route; "
        f"boundaries {b1:.6f}, {b2:.6f}",
    )


def check_momentum_widths_coherence() -> CheckResult:
    k_p, w, L = 10.0, 100.0, 1000.0
    c = CrystalParams(L=L, k_p=k_p)
    widths = {}
    for ell in (math.inf, w / 10.0):
        p = PumpParams(w=w, k_p=k_p, ell_c=ell)
        g = joint.evaluate_grid(p, c, phasematch.EXACT_SINC, "momentum", "rotated")
        widths[ell] = joint.widths_from_grid(g)
    anti_change = _rel(widths[w / 10.0][1], widths[math.inf][1])
    diag_ratio = widths[w / 10.0][0] / widths[math.inf][0]
    flip_before = entanglement.classify(
        PumpParams(w=w, k_p=k_p, ell_c=math.inf), c
    ).correlation_momentum
    flip_after = entanglement.classify(
        PumpParams(w=w, k_p=k_p, ell_c=5.0), c  # below the crossover sqrt(alpha L / k_p)
    ).correlation_momentum
    ok = (
        anti_change < 0.01
        and diag_ratio > 10.0
        and flip_before == entanglement.ANTI
        and flip_after == entanglement.CORRELATED
    )
    return CheckResult(
        name="momentum_widths_coherence",
        passed=ok,
        observed=anti_change,
        tolerance=0.01,
        detail=f"diagonal grew x{diag_ratio:.1f}; enum {flip_before} -> {flip_after}",
    )


def check_si_vs_hankel() -> CheckResult:
    """Closed-form centred-crystal position density against a from-scratch
    Hankel transform of the spectrum at a quadrature unrelated to the
    cached table's."""
    L, k_p = 1000.0, 10.0
    c = CrystalParams(L=L, k_p=k_p, z0=L / 2.0)
    q_max = math.sqrt(2.0 * 1000.0 * k_p / L)
    n = 16384
    grid_re = RadialGrid.from_function(
        lambda q: np.asarray(phasematch.chi_tilde_sinc(q * q / k_p, c)).real, q_max, n
    )
    # normalization needs the full radial span, not just the comparison
    # window (the tail past 5 sqrt(L/k_p) still holds ~2.5% of the mass)
    r_full = math.sqrt(2.0 * 1000.0 * L / k_p) * np.linspace(0.0, 1.0, 1024) ** 2
    dens_full = np.array([hankel0(grid_re, float(r)) for r in r_full]) ** 2
    norm = 2.0 * math.pi * float(np.trapezoid(r_full * dens_full, r_full))
    rhos = np.linspace(0.0, 5.0 * math.sqrt(L / k_p), 200)
    dens = np.array([hankel0(grid_re, float(r)) for r in rhos]) ** 2 / norm
    ref = phasematch._si_density(rhos, L, k_p)
    l2 = math.sqrt(float(np.sum((dens - ref) ** 2)) / float(np.sum(ref**2)))
    return CheckResult(
        name="si_vs_hankel_l2",
        passed=l2 < 1e-3,
        observed=l2,
        tolerance=1e-3,
        detail="centred crystal, rho in [0, 5 sqrt(L/k_p)]",
    )


def check_exit_vs_centred() -> CheckResult:
    """Moving the crystal must reshape the position density (phase matters)
    while leaving the momentum density untouched (modulus only)."""
    L, k_p = 1000.0, 10.0
    c_exit = CrystalParams(L=L, k_p=k_p)  # z0 = L
    c_mid = CrystalParams(L=L, k_p=k_p, z0=L / 2.0)
    rhos = np.linspace(0.0, 4.0 * math.sqrt(L / k_p), 160)
    pos_exit = phasematch.position_radial_density(c_exit, phasematch.EXACT_SINC).pdf(rhos)
    pos_mid = phasematch._si_density(rhos, L, k_p)  # closed form, not its table
    pos_dev = float(np.max(np.abs(pos_exit - pos_mid) / np.max(pos_mid)))
    qs = np.linspace(0.0, 1.0, 57)[1:]
    mom_exit = phasematch.momentum_radial_density(c_exit, phasematch.EXACT_SINC).pdf(qs)
    mom_mid = phasematch.momentum_radial_density(c_mid, phasematch.EXACT_SINC).pdf(qs)
    mom_dev = float(np.max(_rel(mom_exit, mom_mid)))
    return CheckResult(
        name="exit_vs_centred_position",
        passed=pos_dev > 0.01 and mom_dev < 1e-12,
        observed=pos_dev,
        tolerance=0.01,
        comparison=">",
        detail=f"momentum densities agree to {mom_dev:.1e}",
    )


def check_uncertainty_identities() -> CheckResult:
    worst = 0.0
    for w, ell_c, R, L, alpha in (
        (100.0, math.inf, math.inf, 1000.0, 0.455),
        (50.0, 20.0, math.inf, 500.0, 0.455),
        (10.0, 5.0, 2000.0, 100.0, 0.3),
        (200.0, 1000.0, -5000.0, 3000.0, 0.7),
    ):
        p = PumpParams(w=w, k_p=10.0, ell_c=ell_c, R=R)
        c = CrystalParams(L=L, k_p=10.0, alpha=alpha)
        got = entanglement.product_pm(p, c) * entanglement.product_mp(p, c)
        curv = 0.0 if math.isinf(R) else (w * w * p.k_p / R) ** 2
        coh = 0.0 if math.isinf(ell_c) else (w / ell_c) ** 2
        want = math.sqrt((1.0 + 1.0 / (alpha * alpha)) * (1.0 + 4.0 * curv + 4.0 * coh)) / 4.0
        worst = max(worst, _rel(got, want))
    p0 = PumpParams(w=137.0, k_p=10.0)
    coherent = math.sqrt(pump.variance_rho_plus(p0) * pump.variance_q_plus(p0))
    worst = max(worst, abs(coherent - 0.5))
    return CheckResult(
        name="uncertainty_identities",
        passed=worst < 1e-12,
        observed=worst,
        tolerance=1e-12,
        detail="product identity incl. curvature; coherent diagonal product = 1/2",
    )


def check_profile_boxcar() -> CheckResult:
    c = CrystalParams(L=777.0, k_p=10.0, z0=300.0)
    prof = phasematch.NonlinearityProfile.boxcar(c)
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(100):
        dk = rng.uniform(-20.0, 20.0) * math.pi / c.L
        a = phasematch.chi_tilde_profile(dk, prof)
        b = c.L * phasematch.chi_tilde_sinc(dk, c)
        scale = max(abs(a), abs(b), c.L * 1e-6)
        worst = max(worst, abs(a - b) / scale)
    return CheckResult(
        name="profile_boxcar_equals_sinc",
        passed=worst < 1e-12,
        observed=worst,
        tolerance=1e-12,
        detail="100 seeded mismatches",
    )


def check_poling_peak() -> CheckResult:
    """Sign-flipped pairs beat at the poling wave number.  The two-segment
    gain over a single segment is 2|sin(dk Lambda / 2)|, maximal exactly
    at dk = pi/Lambda where the modulus reaches 4 Lambda / pi; a longer
    alternating stack localizes its tallest response there too."""
    lam = 50.0
    dk_star = math.pi / lam
    two = phasematch.NonlinearityProfile.alternating(2, lam)
    single = phasematch.NonlinearityProfile(((0.0, lam, 1.0),))
    dks = np.linspace(1e-4, 4.0 * dk_star, 4001)
    gain = np.abs(phasematch.chi_tilde_profile(dks, two)) / np.abs(
        phasematch.chi_tilde_profile(dks, single)
    )
    dk_at_max = float(dks[np.argmax(gain)])
    peak_err = abs(dk_at_max - dk_star) / dk_star
    value_err = _rel(abs(phasematch.chi_tilde_profile(dk_star, two)), 4.0 * lam / math.pi)
    stack = phasematch.NonlinearityProfile.alternating(16, lam)
    resp = np.abs(phasematch.chi_tilde_profile(dks, stack))
    stack_peak = float(dks[np.argmax(resp)])
    lobe = 2.0 * math.pi / (16 * lam)  # first-zero half-width of the stack response
    ok = peak_err < 1.5e-3 and value_err < 1e-12 and abs(stack_peak - dk_star) < lobe
    return CheckResult(
        name="poling_peak",
        passed=ok,
        observed=value_err,
        tolerance=1e-12,
        detail=f"gain argmax at {dk_at_max:.6f} vs pi/Lambda={dk_star:.6f}; "
        f"16-segment peak off by {abs(stack_peak - dk_star):.2e} (< lobe {lobe:.2e})",
    )


def run_all() -> list[CheckResult]:
    checks = (
        check_alpha_calibration,
        check_variance_sweep,
        check_product_pm_coherence_free,
        check_position_grids_coherence_free,
        check_phase_diagram_boundaries,
        check_momentum_widths_coherence,
        check_si_vs_hankel,
        check_exit_vs_centred,
        check_uncertainty_identities,
        check_profile_boxcar,
        check_poling_peak,
    )
    return [fn() for fn in checks]
