"""Self-validation battery: every closed form against an independent
numerical route, every advertised identity at its stated tolerance.

Each check is standalone and cheap: the whole battery runs in about 0.1 s
with cold caches (in-process, on a 2-core x86-64 host with numpy 2.4).  The CLI `validate` command runs them in order and
reports one line per check.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from . import entanglement, joint, phasematch, pump
from .numerics import sinc
from .params import DEFAULT_ALPHA, CrystalParams, PumpParams

__all__ = ["CheckResult", "run_all"]


class CheckResult(NamedTuple):
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
    rounded_ok = round(alpha, 3) == DEFAULT_ALPHA
    return CheckResult(
        name="alpha_calibration",
        passed=residual < 1e-9 and rounded_ok,
        observed=residual,
        tolerance=1e-9,
        detail=f"alpha={alpha:.6f}, rounds to {DEFAULT_ALPHA}: {rounded_ok}",
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


def _grid_key(g: joint.JointGrid) -> tuple:
    """Everything the CSV and the JSON values of a grid are a function of;
    the axes by repr and the values by their bytes, so -0.0 differs from
    0.0 and every cell is compared to the last bit."""
    return g.space, g.coords, repr(g.axis1), repr(g.axis2), g.values.tobytes()


def check_position_grids_coherence_free() -> CheckResult:
    c = CrystalParams(L=1000.0, k_p=10.0)
    grids = [
        joint.evaluate_grid(
            PumpParams(w=100.0, k_p=10.0, ell_c=ell), c, phasematch.EXACT_SINC,
            "position", "rotated",
        )
        for ell in _ELL_C_SET
    ]
    first = _grid_key(grids[0])
    same = all(_grid_key(g) == first for g in grids)
    # the JSON texts differ by the ell_c they record, so the export is
    # checked by reading the first one back
    same = same and _grid_key(joint.JointGrid.from_json(grids[0].to_json())) == first
    return CheckResult(
        name="position_grids_coherence_free",
        passed=same,
        observed=0.0 if same else 1.0,
        tolerance=0.5,
        detail="space, coords, axes and value bytes identical across ell_c; "
        "JSON round trip bit-exact",
    )


def check_phase_diagram_boundaries() -> CheckResult:
    alpha = DEFAULT_ALPHA
    b1 = 2.0 / math.sqrt(alpha)
    b2 = 2.0 / math.sqrt(alpha + 1.0 / alpha)
    const_err = max(abs(b1 - 2.965), abs(b2 - 1.228))
    cells = entanglement.sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 60, 80, alpha)
    # independent route: realize each x as a pump and each y as a crystal,
    # then ask the witnesses of every pairing
    w, k_p = 1.0, 10.0
    pumps = [PumpParams(w=w, k_p=k_p, ell_c=math.inf if x == 0 else w / x) for x in cells.x.tolist()]
    crystals = [CrystalParams(L=y * y * k_p * w * w, k_p=k_p, alpha=alpha) for y in cells.y.tolist()]
    bad = 0
    for p, type1_row, type2_row in zip(pumps, cells.type1.tolist(), cells.type2.tolist()):
        for c, type1, type2 in zip(crystals, type1_row, type2_row):
            rep = entanglement.classify(p, c)
            if rep.type1 != type1 or rep.type2 != type2 or (type1 and type2):
                bad += 1
    return CheckResult(
        name="phase_diagram_boundaries",
        passed=bad == 0 and const_err < 1e-3,
        observed=const_err,
        tolerance=1e-3,
        detail=f"{cells.type1.size} cells, {bad} disagree with witness route; "
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


def _u_spans(L: float, z0: float) -> list[tuple[float, float]]:
    """The crystal [z0 - L, z0] in u = 1/z: one span, or two out to -inf
    and +inf when it straddles z = 0; a face at z = 0 goes to infinity."""
    za, zb = z0 - L, z0
    if za >= 0.0:
        return [(1.0 / zb, math.inf if za == 0.0 else 1.0 / za)]
    if zb <= 0.0:
        return [(-math.inf if zb == 0.0 else 1.0 / zb, 1.0 / za)]
    return [(-math.inf, 1.0 / za), (1.0 / zb, math.inf)]


def _end_ratio(e: float, w):
    # (e - w)/e, 1 at an infinite end; e2/(e2 + w) is its reciprocal at -w
    return 1.0 if math.isinf(e) else (e - w) / e


def _route_g(w, spans: list[tuple[float, float]], w_ref: float):
    """G(w) = int c(u) c(u - w) du / (u (u - w)), c = 1 on the spans.  As
    1/(u (u - w)) = [1/(u - w) - 1/u] / w, each pair of spans adds
    ln[(u - w)/u] between the ends of their overlap, 0 at an infinite end.
    Which ends bound an overlap is read at the real w_ref, so a complex w
    continues G off the axis from the stretch between kinks holding w_ref.
    (u - w)/u keeps one sign s over an overlap, and s (u - w)/u at an end
    is a real Moebius map of w, positive at w_ref: it takes a vertical ray
    into the right half plane, where the principal log is continuous."""
    total = 0.0
    for lo, hi in spans:
        for lo2, hi2 in spans:  # u - w runs over [lo2, hi2]
            if max(lo, lo2 + w_ref) >= min(hi, hi2 + w_ref):
                continue
            s = 1.0 if (hi > 0.0) == (hi2 > 0.0) else -1.0
            # u = e of this span at an end, or u = e2 + w of the other
            top = _end_ratio(hi, w) if hi <= hi2 + w_ref else 1.0 / _end_ratio(hi2, -w)
            bottom = _end_ratio(lo, w) if lo >= lo2 + w_ref else 1.0 / _end_ratio(lo2, -w)
            total = total + np.log(s * top) - np.log(s * bottom)
    return total / w


def _log_trapezoid(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the trapezoid rule in ln r on [lo, hi]: it
    converges geometrically for an integrand analytic in a strip about the
    axis that vanishes at both ends, whatever scales lie in between."""
    x = np.linspace(math.log(lo), math.log(hi), n)
    r = np.exp(x)
    return r, r * (x[1] - x[0])


def _route_marginal(L: float, z0: float, k_p: float, t: np.ndarray) -> np.ndarray:
    """The sinc crystal's position marginal at offsets t > 0 through u = 1/z,
    sharing no code with E1, the table or J0.  The amplitude is
    A = int c(u) e^{-i kappa u} du/u with c = 1 on the crystal's u-spans and
    kappa = k_p rho^2/4; squared and integrated across y at rho^2 = t^2 + y^2,
    M(t) = s 2 Re[e^{-i pi/4} sqrt(4 pi/k_p) int_0^inf w^{-1/2} G(w) e^{-iaw} dw]
    with a = k_p t^2/4.  Parseval fixes the scale s: the plane integral of
    |A|^2 is 4 pi^2 L/k_p for a crystal of length L, so s = k_p/(4 pi^2 L).
    G is analytic off its kinks, the differences of finite span ends (one
    segment has at most one), and e^{-iaw} decays below the axis.  So the
    integral is the vertical ray from w = 0, w = -i r^2, with the first
    stretch's G, plus the ray from the kink w_k, w = w_k - i r, with the
    second stretch's G less the first's; with no kink (a face at z = 0) the
    first ray is all.  Both take the trapezoid rule in ln r: G varies on
    the scale 1/L near the axis, far below 1/a at small t, where
    Gauss-Laguerre in a r errs by 0.18 of the peak."""
    spans = _u_spans(L, z0)
    a = 0.25 * k_p * t * t
    r_top = 40.0 / float(a.min())  # e^{-a r} below e^{-40} beyond it on every row
    ends = [e for span in spans for e in span if math.isfinite(e)]
    kinks = [e - f for e in ends for f in ends if e > f]
    w_first = 0.5 * kinks[0] if kinks else 1.0 / L  # a real w inside the first stretch
    r, wt = _log_trapezoid(1e-6 / math.sqrt(L), math.sqrt(r_top), 300)
    # w^{-1/2} dw = 2 e^{-i pi/4} dr on w = -i r^2
    g = _route_g(-1j * r * r, spans, w_first)
    integral = complex(math.sqrt(0.5), -math.sqrt(0.5)) * np.sum(np.exp(-np.outer(a, r * r)) * (2.0 * g * wt), axis=1)
    for w_k in kinks:
        r, wt = _log_trapezoid(1e-14 * w_k, r_top, 300)
        w = w_k - 1j * r
        dg = _route_g(w, spans, 2.0 * w_k) - _route_g(w, spans, w_first)
        ray = np.sum(np.exp(-np.outer(a, r)) * (-1j * dg / np.sqrt(w) * wt), axis=1)
        integral = integral + np.exp(-1j * a * w_k) * ray
    rotated = complex(math.sqrt(0.5), -math.sqrt(0.5)) * integral
    return k_p / (4.0 * math.pi**2 * L) * 2.0 * math.sqrt(4.0 * math.pi / k_p) * rotated.real


def check_position_marginal_route() -> CheckResult:
    """The sinc position marginals as a position grid reads them, joint's
    cached factor (the exact marginal tabulated at the density's offsets and
    read by linear interpolation), for the exit face (z0 = L) and the
    centred crystal (z0 = L/2), against the u = 1/z route at 20 offsets
    from 0.05 to 200 um, as fractions of the route's largest value.
    Measured: the exit face is high by 4.7e-5 at 0.05 um, the position
    table's interpolant overshooting the cusp, and low by 3.8e-6 to 4.2e-6
    at 54-200 um, the rho^-4 tail past the table radius; the centred
    crystal is within 1.1e-5 (14.6 um), the factor's interpolation between
    its offsets.  Each tolerance fails E1 scaled by 1 + 1e-4 (2.5e-4 and
    2.0e-4) and a position table on 1,024 nodes (2.0e-4 and 6.4e-5); the
    centred one also fails a factor tabulated at every other offset
    (1.9e-5)."""
    L, k_p = 1000.0, 10.0
    t = np.geomspace(0.05, 200.0, 20)
    errors = []
    for z0, tol in ((L, 1e-4), (L / 2.0, 1.5e-5)):
        route = _route_marginal(L, z0, k_p, t)
        key = phasematch._minus_key(CrystalParams(L=L, k_p=k_p, z0=z0), phasematch.EXACT_SINC, "position")
        got = joint._minus_marginal("position", key).marginal(t)
        errors.append((float(np.max(np.abs(got - route)) / np.max(route)), tol))
    (exit_err, exit_tol), (mid_err, mid_tol) = errors
    worst = max(err / tol for err, tol in errors)
    return CheckResult(
        name="position_marginal_route",
        passed=worst < 1.0,
        observed=worst,
        tolerance=1.0,
        detail=f"share of tolerance; exit face {exit_err:.1e} of the largest value (< {exit_tol:.0e}), "
        f"centred {mid_err:.1e} (< {mid_tol:.1e}), 20 offsets in [0.05, 200] um",
    )


def check_exit_vs_centred() -> CheckResult:
    """Moving the crystal must reshape the position density (phase matters)
    while leaving the momentum spectrum's modulus untouched.  The positions
    read the E1 closed form, not a table.  rho = 0 is left out: there the
    exit-face density sits on its log-squared peak, which would swamp the
    change in shape.  The momentum density reads |chi| alone, so the modulus
    is checked on the spectra themselves, which carry z0 in their phase."""
    L, k_p = 1000.0, 10.0
    c_exit = CrystalParams(L=L, k_p=k_p)  # z0 = L
    c_mid = CrystalParams(L=L, k_p=k_p, z0=L / 2.0)
    rhos = np.linspace(0.0, 4.0 * math.sqrt(L / k_p), 160)[1:]
    pos_exit, pos_mid = (
        phasematch._position_kernel(rhos, *phasematch._minus_key(c, phasematch.EXACT_SINC, "position"))
        for c in (c_exit, c_mid)
    )
    pos_dev = float(np.max(np.abs(pos_exit - pos_mid) / np.max(pos_mid)))
    dks = np.linspace(0.0, 1.0, 57)[1:] ** 2 / k_p
    mom_exit = np.abs(phasematch.chi_tilde_sinc(dks, c_exit)) ** 2
    mom_mid = np.abs(phasematch.chi_tilde_sinc(dks, c_mid)) ** 2
    mom_dev = float(np.max(_rel(mom_exit, mom_mid)))
    return CheckResult(
        name="exit_vs_centred_position",
        passed=pos_dev > 0.01 and mom_dev < 1e-12,
        observed=pos_dev,
        tolerance=0.01,
        comparison=">",
        detail=f"|chi|^2 of the two spectra agree to {mom_dev:.1e}",
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
        check_position_marginal_route,
        check_exit_vs_centred,
        check_uncertainty_identities,
        check_profile_boxcar,
        check_poling_peak,
    )
    return [fn() for fn in checks]
