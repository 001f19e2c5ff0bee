"""Independent reference routes for the test suite.

Nothing here shares numerical code with the package: scipy.special
supplies Si, E1 and J0, scipy.integrate the quadratures, and the
piecewise spectrum is a plain numpy sum of exponentials.  No package
name is used: the centred crystal's spectrum goes to numerics.hankel0 as
plain midpoint samples, laid out by ``midpoints``.  The frozen
constants were computed once with mpmath at 40 significant digits and
pasted in; tests treat them as ground truth.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special

# sinc(x) = 1/e on [2, 2.5], and its reciprocal (the calibrated width
# parameter of the Gaussian phase-matching stand-in)
SINC_1E_ABSCISSA = 2.199123071161498
ALPHA_CALIBRATED = 0.4547267104391005

SI_AT_1 = 0.946083070367183
SI_AT_PI = 1.8519370519824663  # global maximum of Si

# phase-diagram boundary constants at the rounded alpha = 0.455:
# 2/sqrt(alpha) and 2/sqrt(alpha + 1/alpha)
BOUNDARY_TYPE1 = 2.9649972666444047
BOUNDARY_TYPE2 = 1.2279411723668383

# both normalization integrals of the sinc family are exactly pi/2:
# int_0^inf sinc^2(u) du and int_0^inf [pi/2 - Si(s)]^2 ds
SINC_FAMILY_AREA = math.pi / 2.0


def sinc(x):
    """Unnormalized sinc through numpy's normalized one."""
    return np.sinc(np.asarray(x, dtype=float) / math.pi)


def si(x):
    return special.sici(x)[0]


def quad_osc(f, a, b, **kw):
    """scipy.integrate.quad with the subdivision cap raised and its
    convergence warning silenced: the oscillatory sinc-family tails hit
    the cap while the value is already accurate to ~1e-8."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, limit=2000, **kw)
    return val


def sinc_momentum_radial(q, L, k_p):
    """Exact-model anti-diagonal momentum density, built from scipy parts
    and the analytic pi/2 normalization."""
    norm = 2.0 * math.pi * (k_p / L) * SINC_FAMILY_AREA
    return sinc(np.asarray(q) ** 2 * L / (2.0 * k_p)) ** 2 / norm


def profile_momentum_radial(q, k_p, segments):
    """Anti-diagonal momentum density of a piecewise-constant chi(2)
    profile, segments (z_a, z_b, chi2), in plain numpy: |chi(dk)|^2 /
    norm_q at dk = q^2 / k_p, with chi = sum chi2 (e^{i dk z_b} -
    e^{i dk z_a}) / (i dk) and chi(0) = sum chi2 (z_b - z_a).  norm_q is
    the analytic pi^2 k_p sum chi2^2 (z_b - z_a), as in e1_position_radial."""
    dk = np.asarray(q, dtype=float) ** 2 / k_p
    zero = dk == 0.0
    safe = np.where(zero, 1.0, dk)
    chi = np.zeros(dk.shape, dtype=complex)
    for za, zb, amp in segments:
        chi += np.where(
            zero,
            amp * (zb - za),
            amp * (np.exp(1j * safe * zb) - np.exp(1j * safe * za)) / (1j * safe),
        )
    norm_q = math.pi**2 * k_p * sum(amp * amp * (zb - za) for za, zb, amp in segments)
    return np.abs(chi) ** 2 / norm_q


def si_position_radial(rho, L, k_p):
    """Centred-crystal anti-diagonal position density from scipy's Si."""
    rho = np.asarray(rho, dtype=float)
    si_vals = special.sici(k_p * rho * rho / (2.0 * L))[0]
    return (math.pi / 2.0 - si_vals) ** 2 / (2.0 * math.pi * (L / k_p) * SINC_FAMILY_AREA)


def e1_position_radial(rho, k_p, segments):
    """Anti-diagonal position density of a piecewise-constant chi(2)
    profile, segments (z_a, z_b, chi2), from scipy's E1:
    (k_p/2)^2 |sum chi2 [E1(i kappa/z_b) - E1(i kappa/z_a)]|^2 / norm_q with
    kappa = k_p rho^2 / 4; a face at z = 0 contributes nothing.  norm_q is
    the analytic momentum norm pi^2 k_p sum chi2^2 (z_b - z_a), Parseval's
    theorem applied to the profile along z."""
    kappa = k_p * np.asarray(rho, dtype=float) ** 2 / 4.0
    total = np.zeros(kappa.shape, dtype=complex)
    for za, zb, amp in segments:
        if zb != 0.0:
            total += amp * special.exp1(1j * kappa / zb)
        if za != 0.0:
            total -= amp * special.exp1(1j * kappa / za)
    norm_q = math.pi**2 * k_p * sum(amp * amp * (zb - za) for za, zb, amp in segments)
    return (k_p / 2.0) ** 2 * np.abs(total) ** 2 / norm_q


def midpoints(r_max, n):
    """The n midpoint nodes (k + 1/2) r_max / n on (0, r_max], where
    numerics.hankel0 takes its samples to sit."""
    return (np.arange(n) + 0.5) * (r_max / n)


def centred_spectrum(L, k_p):
    """The centred crystal's real spectrum sinc(q^2 L / 2 k_p) on 16,384
    midpoint nodes out to q^2 L / 2 k_p = 1000, where the sinc has fallen
    to ~1e-3: the input of the Hankel route to its position density.
    Returns the samples and q_max, hankel0's first two arguments."""
    q_max = math.sqrt(2.0 * 1000.0 * k_p / L)
    q = midpoints(q_max, 16384)
    return sinc(q * q * L / (2.0 * k_p)), q_max


def parseval_norm(values, r_max):
    """int 2 pi rho hankel0(values, r_max, rho)^2 drho over the whole
    plane, by Parseval: (1/2pi) int q f^2 dq, summed over the samples' own
    midpoint nodes."""
    n = values.size
    return float(np.sum(midpoints(r_max, n) * values**2)) * (r_max / n) / (2.0 * math.pi)


def marginal_of_radial(pdf, t, y_cap):
    """1D marginal of a radially symmetric 2D density at offset t, by
    adaptive quadrature across the transverse direction."""
    return 2.0 * quad_osc(lambda y: float(pdf(math.hypot(t, y))), 0.0, y_cap)


def profile_momentum_marginal(t, k_p, segments, y_cap=20.0):
    """1D marginal 2 int_0^inf p(sqrt(t^2 + y^2)) dy of
    profile_momentum_radial, by brute force.  The midpoint rule covers
    [0, y_cap] with 32 nodes per period of the spectrum's fastest
    oscillation there (dk = q^2/k_p, period 2 pi / extent in dk).  Beyond
    y_cap only the non-oscillating part of |chi|^2 is kept,
    sum_e sigma_e^2 / dk^2 with sigma_e the jump of chi2 at edge e, and
    integrated by quad; the oscillating rest falls off one power faster."""
    jumps = {}
    for za, zb, amp in segments:
        jumps[za] = jumps.get(za, 0.0) + amp
        jumps[zb] = jumps.get(zb, 0.0) - amp
    extent = max(jumps) - min(jumps)
    n = math.ceil(32.0 * y_cap * y_cap * extent / (math.pi * k_p))
    h = y_cap / n
    y = (np.arange(n) + 0.5) * h
    body = h * float(np.sum(profile_momentum_radial(np.hypot(t, y), k_p, segments)))
    norm_q = math.pi**2 * k_p * sum(amp * amp * (zb - za) for za, zb, amp in segments)
    tail = k_p * k_p * sum(s * s for s in jumps.values()) / norm_q
    rest = quad_osc(lambda v: tail / (t * t + v * v) ** 2, y_cap, np.inf)
    return 2.0 * (body + rest)


def table_position_marginal(nodes, vals, t):
    """1D marginal of a radial table's linear interpolant (vals[0] below the
    first node, zero past the last node R) at offsets t, summing every node
    for every offset: 2 p(R) sqrt(R^2 - t^2) plus, over the nodes,
    d_j (r_j s_j - t^2 ln((r_j + s_j)/t)) with r_j = max(node_j, t),
    s_j = sqrt(r_j^2 - t^2) and d_j the jump of the slope at node j.  Each
    offset's terms are added by np.sum on their own row, so no value
    depends on the other offsets."""
    nodes = np.asarray(nodes, dtype=float)
    vals = np.asarray(vals, dtype=float)
    jumps = np.diff(np.diff(vals) / np.diff(nodes), prepend=0.0, append=0.0)
    t = np.abs(np.asarray(t, dtype=float)).ravel()
    out = 2.0 * vals[-1] * np.sqrt(np.maximum(nodes[-1] ** 2 - t * t, 0.0))
    for start in range(0, t.size, 128):
        tb = t[start : start + 128, None]
        r = np.maximum(nodes, tb)
        s = np.sqrt(r * r - tb * tb)
        log = np.log((r + s) / np.where(tb > 0.0, tb, 1.0))
        out[start : start + 128] += np.sum((r * s - tb * tb * log) * jumps, axis=1)
    return out


def _u_spans(segments):
    """Each segment (z_a, z_b, chi2) in u = 1/z as (u_lo, u_hi, chi2): one
    span, or two out to -inf and +inf when it straddles z = 0."""
    spans = []
    for za, zb, amp in segments:
        if za >= 0.0:
            spans.append((1.0 / zb, math.inf if za == 0.0 else 1.0 / za, amp))
        elif zb <= 0.0:
            spans.append((-math.inf if zb == 0.0 else 1.0 / zb, 1.0 / za, amp))
        else:
            spans += [(-math.inf, 1.0 / za, amp), (1.0 / zb, math.inf, amp)]
    return spans


def _g_piece(w, spans, w_ref):
    """G(w) = int c(u) c(u - w) du / (u (u - w)) by partial fractions, with
    the overlap of each pair of spans bounded by the ends it has at the real
    w_ref: the analytic piece of G between the two kinks around w_ref,
    continued to complex w.  Each pair adds chi2 chi2' ln[(u - w)/u]
    between its ends.  (u - w)/u keeps one sign s over the overlap, so at
    each end s (u - w)/u is a Moebius map of w with real coefficients that
    is positive at w_ref: a vertical ray maps into the right half plane,
    where the principal log is continuous."""
    total = np.zeros(np.shape(w), dtype=complex)
    for lo, hi, amp in spans:
        for lo2, hi2, amp2 in spans:
            lo_w, hi_w = max(lo, lo2 + w_ref), min(hi, hi2 + w_ref)
            if lo_w >= hi_w:
                continue
            s = 1.0 if (hi > 0.0) == (hi2 > 0.0) else -1.0  # sign of u (u - w)
            for end, own, other, sign in ((hi_w, hi, hi2, 1.0), (lo_w, lo, lo2, -1.0)):
                if math.isinf(end):  # (u - w)/u -> 1, and s = 1 there
                    continue
                # u = own, or u = other + w
                ratio = (own - w) / own if end == own else other / (other + w)
                total += sign * amp * amp2 * np.log(s * ratio)
    return total / w


def _log_ray(lo, hi, n):
    x = np.linspace(math.log(lo), math.log(hi), n)
    r = np.exp(x)
    return r, r * (x[1] - x[0])


def u_route_position_marginal(t, k_p, segments, nodes=600):
    """1D position marginal of a piecewise-constant chi(2) profile,
    segments (z_a, z_b, chi2), at offsets t > 0, through u = 1/z:

        M(t) = k_p / (4 pi^2 E) 2 Re[e^{-i pi/4} sqrt(4 pi/k_p)
               int_0^inf w^{-1/2} G(w) e^{-i k_p t^2 w/4} dw],

    E = sum chi2^2 (z_b - z_a) (Parseval), G the overlap integral of the
    profile's u-spans (_g_piece).  G is analytic between its kinks, the
    positive differences of finite span ends, and e^{-iaw} decays below
    the axis, so each stretch [w_j, w_j+1] is the vertical ray down from
    w_j minus the one from w_j+1 (the last stretch only its first ray),
    both with that stretch's G.  The ray from w = 0 runs w = -i r^2, the
    others w = w_j - i r; every ray takes the trapezoid rule in ln r,
    whose ends are set so that nothing beyond them reaches 1e-15 of the
    result.  No Fourier weight and no real-axis quadrature: the rays
    carry no oscillation."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = 0.25 * k_p * t * t
    spans = _u_spans(segments)
    ends = sorted({e for lo, hi, _ in spans for e in (lo, hi) if math.isfinite(e)})
    kinks = sorted({e - f for e in ends for f in ends if e > f})
    bounds = [0.0] + kinks
    r_top = 40.0 / float(a.min())
    w_min = min(abs(e) for e in ends)  # below it G is flat: it starts to bend at w ~ 1/|z|
    total = np.zeros(t.shape, dtype=complex)
    for j, w_lo in enumerate(bounds):
        w_hi = bounds[j + 1] if j + 1 < len(bounds) else math.inf
        w_ref = 0.5 * (w_lo + w_hi) if math.isfinite(w_hi) else 2.0 * w_lo + w_min
        for w0, sign in ((w_lo, 1.0), (w_hi, -1.0)):
            if math.isinf(w0):
                continue
            if w0 == 0.0:
                r, wt = _log_ray(1e-6 * math.sqrt(w_min), math.sqrt(r_top), nodes)
                g = _g_piece(-1j * r * r, spans, w_ref)
                # w^{-1/2} dw = 2 e^{-i pi/4} dr on w = -i r^2
                vals = np.exp(-np.outer(a, r * r)) * (2.0 * complex(math.sqrt(0.5), -math.sqrt(0.5)) * g * wt)
            else:
                r, wt = _log_ray(1e-15 * w0, r_top, nodes)
                w = w0 - 1j * r
                vals = np.exp(-np.outer(a, r)) * (-1j * _g_piece(w, spans, w_ref) / np.sqrt(w) * wt)
                vals *= np.exp(-1j * a * w0)[:, None]
            total += sign * np.sum(vals, axis=1)
    norm = sum(amp * amp * (zb - za) for za, zb, amp in segments)
    rotated = complex(math.sqrt(0.5), -math.sqrt(0.5)) * total
    return k_p / (4.0 * math.pi**2 * norm) * 2.0 * math.sqrt(4.0 * math.pi / k_p) * rotated.real


def schell_gamma(p, r1, r2):
    """Mutual coherence Gamma(r1, r2) of the Gaussian Schell-model pump,
    rebuilt from its definition:

        exp[-(r1^2 + r2^2)/(4 w^2) - (r1 - r2)^2/(2 ell_c^2)
            - i k_p (r1^2 - r2^2)/(2 R)]

    r1, r2: broadcastable arrays whose last axis holds the transverse
    components (one or two).  Every term is a sum over components, so the
    2D function is the product of its one-axis factors."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    s1 = np.sum(r1 * r1, axis=-1)
    s2 = np.sum(r2 * r2, axis=-1)
    d = r1 - r2
    amp = -(s1 + s2) / (4.0 * p.w**2) - np.sum(d * d, axis=-1) / (2.0 * p.ell_c**2)
    phase = -(s1 - s2) * p.k_p / (2.0 * p.R)
    return np.exp(amp + 1j * phase)


def schell_variances(p, n_x=801, n_q=1201):
    """(variance of the 1D intensity Gamma(x, x), variance of the 1D
    angular spectrum S(q) = int int Gamma(x1, x2) e^{-iq(x1 - x2)} dx1 dx2),
    both by plain sums on uniform grids: x over +-8 w, q over +-10
    standard deviations of S.  Gamma is Gaussian in every direction and
    negligible at the grid ends, so the sums converge to rounding."""
    x = np.linspace(-8.0 * p.w, 8.0 * p.w, n_x)
    gamma = schell_gamma(p, x[:, None, None], x[None, :, None])
    intensity = np.real(np.diagonal(gamma))
    var_x = float(np.sum(x * x * intensity) / np.sum(intensity))
    # the spectrum's width, for sizing its grid only: coherent spread
    # 1/(4 w^2), plus 1/ell_c^2 from the coherence and (w k_p/R)^2 from the
    # curvature phase
    sigma_q = math.sqrt(1.0 / (4.0 * p.w**2) + 1.0 / p.ell_c**2 + (p.w * p.k_p / p.R) ** 2)
    q = np.linspace(-10.0 * sigma_q, 10.0 * sigma_q, n_q)
    phases = np.exp(-1j * np.outer(q, x))
    spectrum = np.real(np.sum((phases @ gamma) * phases.conj(), axis=1))
    var_q = float(np.sum(q * q * spectrum) / np.sum(spectrum))
    return var_x, var_q


def gaussian_2d(x, y, var1, var2, covar=0.0):
    """Normalized correlated 2D Gaussian, for injecting synthetic grids."""
    det = var1 * var2 - covar * covar
    if det <= 0.0:
        raise ValueError("covariance matrix must be positive definite")
    quad_form = (var2 * x * x - 2.0 * covar * x * y + var1 * y * y) / det
    return np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(det))
