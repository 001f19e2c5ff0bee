"""Longitudinal phase matching: the spectrum chi_tilde of the nonlinearity
profile, its calibrated Gaussian stand-in, and the anti-diagonal (minus
coordinate) densities in momentum and position.

Geometry convention: a uniform crystal ``CrystalParams(L=L, z0=z0)``
occupies [z0 - L, z0], i.e. z0 is the exit face.  Under the e^{+i dk z}
transform its spectrum is L e^{i dk (z0 - L/2)} sinc(dk L/2); choosing
z0 = L/2 centres the crystal on the origin and kills the phase, z0 = L
puts the entrance face at the origin (the default).  The phase is
irrelevant in momentum space (only |chi|^2 enters) but reshapes the
position density, so the two defaults are genuinely different there.

Everything is expressed through the mismatch dk; for a degenerate pair
dk = q_minus^2 / k_p with q_minus the anti-diagonal transverse wave
vector.  Densities are normalized over their 2D plane, exactly: by
Parseval the momentum norm of a non-Gaussian model is
pi^2 k_p sum chi2^2 (z_b - z_a) over the segments of its profile (the
sinc model being the one segment [0, L] with chi2 = 1/L), and the
Gaussian model's is analytic.  Every non-Gaussian momentum density is
|chi(dk)|^2 / norm_q evaluated exactly at each radius; it depends on k_p
and L for sinc, k_p and the profile otherwise, never on z0 or alpha.  Its 1D
marginal is a closed form too: |chi|^2 is the Fourier transform of the
profile's autocorrelation, which is piecewise linear, so the transverse
projection reduces to Fresnel integrals, one kernel per distinct lag
between edges of the profile.
Every non-Gaussian position density is one closed form: the amplitude is
-sum_e sigma_e E1(i kappa/z_e) over the edges z_e of chi2, sigma_e its
jump there and kappa = k_p rho^2 / 4, and Parseval's theorem turns the
momentum norm into the position scale, so no position-space normalization
integral or Hankel transform is needed.
It is tabulated on each build, and the 1D marginal of the table's linear
interpolant is a closed form too, so no density is projected by quadrature.
The builders take _minus_key's inputs, never a crystal or a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParseError, UnknownChoice
from .numerics import _FRESNEL_HUGE, RadialDensity, _horner, _split_domain, exp1_i, find_root, fresnel, gaussian_radial, sinc
from .params import CrystalParams

__all__ = [
    "NonlinearityProfile",
    "load_profile",
    "PhaseMatchModel",
    "EXACT_SINC",
    "GAUSSIAN_APPROX",
    "chi_tilde_sinc",
    "chi_tilde_profile",
    "chi_tilde",
    "calibrate_alpha",
    "variance_q_minus",
    "variance_rho_minus",
    "momentum_radial_density",
    "position_radial_density",
]

_TAYLOR_SWITCH = 1e-5  # |dk| * segment length below which the series is used

# Dimensionless window of the heavy-tailed sinc-family densities, in the
# natural argument u (= dk * feature / 2).  The tail mass beyond u is
# ~ 1/(pi u): 1000 keeps default grids above 99.9% capture.
_U_HALF = 1000.0


@dataclass(frozen=True)
class NonlinearityProfile:
    """Piecewise-constant longitudinal chi(2) profile.

    segments: (z_start, z_end, chi2) triples (um, um, signed amplitude),
    stored sorted by z_start.  Signed amplitudes encode periodic poling.
    edges: (z_e, sigma_e), chi2's sorted edges and its nonzero jumps there,
    built with the profile; every closed form reads chi2 through them, and
    equality and hashing stay on segments.  Spectrum and norm stay per
    segment (the edge form cancels as dk -> 0): two cuts agree there when
    their sums of chi2^2 (z_b - z_a) do.
    """

    segments: tuple[tuple[float, float, float], ...]
    edges: tuple[tuple[float, ...], tuple[float, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = sorted(
            (float(a), float(b), float(amp)) for a, b, amp in self.segments
        )
        if not segs:
            raise ValueError("profile needs at least one segment")
        for a, b, amp in segs:
            if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(amp)):
                raise ValueError("profile segments must be finite")
            if not b > a:
                raise ValueError(f"segment [{a!r}, {b!r}] has non-positive length")
        for (_, b_prev, _), (a_next, _, _) in zip(segs, segs[1:]):
            if a_next < b_prev:
                raise ValueError(f"segments overlap at z = {a_next!r}")
        if all(amp == 0.0 for _, _, amp in segs):
            raise ValueError("profile needs at least one segment with chi2 != 0")
        object.__setattr__(self, "segments", tuple(segs))
        jumps: dict[float, float] = {}
        for za, zb, amp in segs:
            jumps[za] = jumps.get(za, 0.0) + amp
            jumps[zb] = jumps.get(zb, 0.0) - amp
        z = tuple(sorted(e for e, sigma in jumps.items() if sigma != 0.0))
        object.__setattr__(self, "edges", (z, tuple(jumps[e] for e in z)))

    @property
    def extent(self) -> tuple[float, float]:
        """The support of chi2: its first and last edge."""
        return self.edges[0][0], self.edges[0][-1]

    @property
    def min_segment_length(self) -> float:
        """The shortest gap between two edges of chi2."""
        return float(np.diff(self.edges[0]).min())

    @classmethod
    def boxcar(cls, c: CrystalParams, chi2: float = 1.0) -> "NonlinearityProfile":
        """Single uniform segment matching the crystal geometry: [z0-L, z0]."""
        return cls(((c.z0 - c.L, c.z0, chi2),))

    @classmethod
    def alternating(
        cls, n_segments: int, segment_length: float, z_start: float = 0.0, chi2: float = 1.0
    ) -> "NonlinearityProfile":
        """Periodically poled stack: n segments of equal length with
        alternating sign, starting at z_start."""
        segs = tuple(
            (
                z_start + k * segment_length,
                z_start + (k + 1) * segment_length,
                chi2 if k % 2 == 0 else -chi2,
            )
            for k in range(n_segments)
        )
        return cls(segs)


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def load_profile(path) -> NonlinearityProfile:
    """Read a profile from CSV rows of (z_start, z_end, chi2).

    '#' comments, blank lines and a leading byte-order mark are skipped.
    The first row may be a header, and is skipped, only when none of its
    fields is a number.  Malformed rows raise ParseError with the line number.
    """
    segments: list[tuple[float, float, float]] = []
    rows = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            rows += 1
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ParseError(str(path), lineno, f"expected 3 comma-separated values, got {len(parts)}")
            try:
                segments.append(tuple(map(float, parts)))
            except ValueError:
                if rows == 1 and not any(map(_is_number, parts)):
                    continue  # header row
                raise ParseError(str(path), lineno, f"cannot parse row {line!r}") from None
    if not segments:
        raise ParseError(str(path), 0, "no profile segments found")
    try:
        return NonlinearityProfile(tuple(segments))
    except ValueError as exc:
        raise ParseError(str(path), 0, str(exc)) from None


@dataclass(frozen=True)
class PhaseMatchModel:
    """Which longitudinal spectrum drives the anti-diagonal densities.

    kind: "sinc" (exact boxcar spectrum), "gauss" (calibrated Gaussian
    stand-in, the only model with finite momentum variances), or
    "profile" (arbitrary piecewise-constant profile; requires ``profile``).
    """

    kind: str
    profile: NonlinearityProfile | None = None

    def __post_init__(self):
        if self.kind not in ("sinc", "gauss", "profile"):
            raise UnknownChoice(f"unknown phase-match model kind {self.kind!r}")
        if (self.kind == "profile") != (self.profile is not None):
            raise ValueError("profile models need a NonlinearityProfile, others must not carry one")

    @classmethod
    def from_profile(cls, prof: NonlinearityProfile) -> "PhaseMatchModel":
        return cls("profile", prof)

    def as_dict(self) -> dict:
        """{"kind", "profile"}, the profile as [z_start, z_end, chi2] lists
        or None: how grid JSON and manifests record the model."""
        segs = None if self.profile is None else [list(seg) for seg in self.profile.segments]
        return {"kind": self.kind, "profile": segs}

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseMatchModel":
        """Inverse of ``as_dict``."""
        return cls(d["kind"], None if d["profile"] is None else NonlinearityProfile(d["profile"]))


EXACT_SINC = PhaseMatchModel("sinc")
GAUSSIAN_APPROX = PhaseMatchModel("gauss")


def chi_tilde_sinc(dk, c: CrystalParams):
    """Spectrum of the uniform crystal [z0 - L, z0], overall length factor
    dropped: exp[i dk (z0 - L/2)] sinc(dk L/2).  Purely real for z0 = L/2;
    |chi| is z0-independent.  Accepts scalar or array dk."""
    dk = np.asarray(dk, dtype=float)
    out = np.exp(1j * dk * (c.z0 - 0.5 * c.L)) * sinc(0.5 * dk * c.L)
    return complex(out) if out.ndim == 0 else out


def chi_tilde_profile(dk, prof: NonlinearityProfile):
    """Spectrum int dz e^{i dk z} chi2(z) of a piecewise-constant profile,
    summed segment by segment in closed form.

    Each segment contributes chi2 e^{i dk z_start} h E(i dk h) with
    h the segment length and E(x) = (e^x - 1)/x; below |dk| h = 1e-5 the
    three-term series of E dodges the subtractive cancellation.  A single
    boxcar [z0-L, z0] reproduces L * chi_tilde_sinc exactly.
    """
    dk_arr = np.asarray(dk, dtype=float)
    total = np.zeros(dk_arr.shape, dtype=complex)
    for za, zb, amp in prof.segments:
        if amp == 0.0:
            continue
        h = zb - za
        u = dk_arr * h
        small = np.abs(u) < _TAYLOR_SWITCH
        u_safe = np.where(small, 1.0, u)
        core = np.where(
            small,
            1.0 + 1j * u / 2.0 - u * u / 6.0,
            (np.exp(1j * u_safe) - 1.0) / (1j * u_safe),
        )
        total = total + amp * h * np.exp(1j * dk_arr * za) * core
    return complex(total) if total.ndim == 0 else total


def chi_tilde(dk, c: CrystalParams, m: PhaseMatchModel):
    """The chosen model's spectrum as a function of the mismatch dk.
    Note the two closed-form models drop the overall length factor while
    profiles keep their physical amplitude.  The Gaussian model is
    exp[(i - alpha) dk L / 2]."""
    if m.kind == "sinc":
        return chi_tilde_sinc(dk, c)
    if m.kind == "profile":
        return chi_tilde_profile(dk, m.profile)
    out = np.exp((1j - c.alpha) * np.asarray(dk, dtype=float) * c.L / 2.0)
    return complex(out) if out.ndim == 0 else out


def calibrate_alpha() -> float:
    """Width parameter of the Gaussian stand-in, fixed by matching its 1/e
    point to that of |sinc|: returns 1/x* with sinc(x*) = 1/e, x* in
    [2, 2.5].  Bisection; deterministic; ~0.45473, rounding to 0.455."""
    x_star = find_root(lambda t: sinc(t) - math.exp(-1.0), 2.0, 2.5, tol=1e-14)
    return 1.0 / x_star


def variance_q_minus(c: CrystalParams) -> float:
    """Per-axis momentum variance of the Gaussian-model anti-diagonal
    density: k_p / (2 alpha L).  The exact sinc density has no finite
    second moment (log divergence), so variances always mean this model."""
    return c.k_p / (2.0 * c.alpha * c.L)


def variance_rho_minus(c: CrystalParams) -> float:
    """Per-axis position variance of the Gaussian-model anti-diagonal
    density: L (alpha + 1/alpha) / (2 k_p)."""
    return c.L * (c.alpha + 1.0 / c.alpha) / (2.0 * c.k_p)


def _minus_key(c: CrystalParams, m: PhaseMatchModel, space: str) -> tuple:
    # What the non-Gaussian density of (c, m) in space reads, and no more.
    # Momentum: k_p and the modulus key, the profile that fixes |chi(dk)|^2
    # and the norm; for sinc the one segment [0, L] with chi2 = 1/L (a shift
    # in z changes only the phase).  Position adds the placed profile, for
    # sinc [z0 - L, z0] with chi2 = 1/L to match chi_tilde_sinc's dropped
    # length factor.  So sinc reads (k_p, L) and (k_p, L, z0), a profile
    # (k_p, profile), and alpha belongs to the Gaussian model.  The position
    # norm stays with the modulus key: z0 - (z0 - L) can round apart from L
    # (L = 0.1, z0 = 0.7).
    if m.kind == "profile":
        return (c.k_p, m.profile) if space == "momentum" else (c.k_p, m.profile, m.profile)
    key = (c.k_p, NonlinearityProfile(((0.0, c.L, 1.0 / c.L),)))
    return key if space == "momentum" else (*key, NonlinearityProfile.boxcar(c, 1.0 / c.L))


# -- radial density providers for the joint module ---------------------------

def _momentum_norm(k_p: float, key: NonlinearityProfile) -> float:
    # integral of |chi(q^2/k_p)|^2 over the q plane, exact by Parseval:
    # d^2q = pi k_p d(dk) and int |chi(dk)|^2 d(dk) = 2 pi int chi2^2 dz
    return math.pi**2 * k_p * sum(amp * amp * (zb - za) for za, zb, amp in key.segments)


def _autocorrelation_lags(key: NonlinearityProfile) -> tuple[np.ndarray, np.ndarray]:
    # The autocorrelation R(s) = int chi2(z) chi2(z + s) dz of the profile
    # as ramps: for s >= 0, R(s) = sum_j w_j (lag_j - s)_+ over the distinct
    # positive lags z_f - z_e between the profile's edges, with
    # w_j = -sum sigma_e sigma_f over the edge pairs at that lag.  Returns
    # the sorted lags and their weights; equal lags are combined exactly.
    # The pairs are taken d edges apart, one d at a time and combined as
    # they come, so a uniform stack of n segments never holds n^2/2 pairs.
    edges, sigma = map(np.array, key.edges)
    lags, weights = [], []
    for d in range(1, edges.size):
        lag, which = np.unique(edges[d:] - edges[:-d], return_inverse=True)
        lags.append(lag)
        weights.append(np.bincount(which, weights=sigma[d:] * sigma[:-d], minlength=lag.size))
    lags, which = np.unique(np.concatenate(lags), return_inverse=True)
    weights = -np.bincount(which, weights=np.concatenate(weights), minlength=lags.size)
    keep = weights != 0.0
    return lags[keep], weights[keep]


# The ramp kernel's series, sum over n of 4 i^n w^n / (n! (2n+1) (2n+3)) in
# w = x^2, rounded once as numerics' tables are: below w = 1, 20 terms take
# the remainder under 1e-20, and the sum is within 2.3e-16 of 40-digit mpmath
_RAMP_SERIES = tuple(1j**n * (4 / (math.factorial(n) * (2 * n + 1) * (2 * n + 3))) for n in range(20))


def _ramp_kernel(x: np.ndarray) -> np.ndarray:
    # k(x) = int_0^1 (1 - s) s^{-1/2} e^{i x^2 s} ds for x >= 0, in closed
    # form F(x) (2/x - i/x^3) + i e^{ix^2}/x^2 with F the Fresnel integral.
    # Its 1/x^2 terms cancel as x -> 0, losing digits like 1/x^2, so x <= 1
    # (and x = 0 exactly, where k = 4/3) takes the power series; from
    # fresnel's top on, where x^2 overflows, k ~ 2 F(inf)/x is 0.
    return _split_domain(x, 1.0, _FRESNEL_HUGE, 0j, lambda xs: _horner(_RAMP_SERIES, xs * xs), _ramp_closed_form)


def _ramp_closed_form(x: np.ndarray) -> np.ndarray:
    inv = 1.0 / x
    return fresnel(x) * (2.0 - 1j * inv * inv) * inv + 1j * np.exp(1j * x * x) * inv * inv


def _momentum_marginal(k_p: float, key: NonlinearityProfile) -> Callable[[np.ndarray], np.ndarray]:
    # The exact projection M(t) = int p(sqrt(t^2 + y^2)) dy over all y of
    # the momentum density p(q) = |chi(q^2/k_p)|^2 / norm_q.  With
    # |chi(dk)|^2 = int R(s) e^{i dk s} ds and
    # int e^{i s y^2/k_p} dy = sqrt(pi k_p/|s|) e^{i sgn(s) pi/4},
    # M(t) = (2 sqrt(pi k_p)/norm_q) Re[e^{i pi/4} int_0^E R(s) s^{-1/2} e^{i omega s} ds]
    # with omega = t^2/k_p and E the extent; on the ramps of R the integral
    # is sum_j w_j lag_j^{3/2} k(t sqrt(lag_j/k_p)).
    lags, weights = _autocorrelation_lags(key)
    scale = 2.0 * math.sqrt(math.pi * k_p) / _momentum_norm(k_p, key)
    rotation = complex(math.sqrt(0.5), math.sqrt(0.5)) * scale

    def marginal(t):
        t = np.abs(np.asarray(t, dtype=float))
        total = np.zeros(t.shape, dtype=complex)
        # one lag at a time: memory stays a few arrays of t's size
        for lag, weight in zip(lags.tolist(), weights.tolist()):
            total += weight * lag**1.5 * _ramp_kernel(t * math.sqrt(lag / k_p))
        return (rotation * total).real.copy()  # owned, not a view of the complex sum

    return marginal


def momentum_radial_density(c: CrystalParams, m: PhaseMatchModel) -> RadialDensity:
    """The anti-diagonal momentum density as a radial profile.  Non-Gaussian
    models evaluate |chi(q^2/k_p)|^2 / norm_q exactly at every radius, and
    carry the exact 1D marginal in closed form: Fresnel integrals over the
    piecewise-linear autocorrelation of chi2, one kernel per distinct
    positive lag between edges of the profile.  A profile with n_e edges
    has at most n_e (n_e - 1)/2 lags (one for sinc, n for a contiguous
    stack of n equal segments), and the marginal costs that many kernel
    evaluations per point, with memory of a few arrays of the points."""
    if m.kind == "gauss":
        return gaussian_radial(variance_q_minus(c))
    return _momentum_density(*_minus_key(c, m, "momentum"))


def _momentum_density(k_p: float, key: NonlinearityProfile) -> RadialDensity:
    norm = _momentum_norm(k_p, key)

    def pdf(q):
        q = np.asarray(q, dtype=float)
        return np.abs(chi_tilde_profile(q * q / k_p, key)) ** 2 / norm

    half = math.sqrt(2.0 * _U_HALF * k_p / key.min_segment_length)
    return RadialDensity(pdf=pdf, half_range=half, sigma=None, marginal=_momentum_marginal(k_p, key))


def _position_kernel(rho: np.ndarray, k_p: float, key: NonlinearityProfile, placed: NonlinearityProfile) -> np.ndarray:
    # Closed-form position density at radii rho > 0.  The 2D Fourier
    # transform of e^{i q^2 z / k_p} is (i pi k_p / z) e^{-i kappa / z},
    # kappa = k_p rho^2 / 4, so the amplitude integrates to
    # -sum_e sigma_e E1(i kappa/z_e), one E1 per edge of chi2; an edge at
    # z = 0 adds E1(i inf) = 0.  Parseval fixes the scale from the momentum
    # norm: density = (k_p/2)^2 |sum|^2 / norm_q.
    kappa = 0.25 * k_p * rho * rho
    total = np.zeros(rho.shape, dtype=complex)
    for z, sigma in zip(*placed.edges):
        if z != 0.0:
            total -= sigma * exp1_i(kappa / z)
    return (0.5 * k_p) ** 2 * (total.real**2 + total.imag**2) / _momentum_norm(k_p, key)


# linear interpolation between these nodes errs by h^2/8 max|f''|: at most
# 7e-5 of the largest value on 1-50 um for the exit-face, z0 = 1.5 L and
# poled-pair densities at L = 1000 um, k_p = 10 rad/um
_TABLE_NODES = 2048


def _position_table(k_p: float, key: NonlinearityProfile, placed: NonlinearityProfile) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form position density of the placed profile on a radial
    table, built afresh on each call (joint caches the factor made from
    it).  Quadratic midpoint nodes rho_max ((k + 1/2)/n)^2 crowd towards
    the origin, where an edge at z = 0 puts a log-squared peak, and never
    touch its divergence.  rho_max^2 k_p / (2 _U_HALF) is the extent E
    from the placed profile's first edge z_lo to its last z_hi, or the
    sinc tail's scale (z_lo^2 + z_hi^2)/E if both lie off z = 0."""
    zlo, zhi = placed.extent
    rho_max = math.sqrt(2.0 * _U_HALF * (zhi - zlo + 2.0 * max(zlo * zhi, 0.0) / (zhi - zlo)) / k_p)
    t = (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
    nodes = rho_max * t * t
    return nodes, _position_kernel(nodes, k_p, key, placed)


# Each node r of the table's marginal adds r^2 phi(t/r) at offset t, with
# phi(u) = sqrt(1 - u^2) - u^2 arccosh(1/u).  Nodes at r >= _NEAR t_max
# (u <= 1/_NEAR) take phi's expansion
#   1 - u^2 (1/2 + ln 2 - ln u) + sum_{k=2}^{_SERIES_TERMS} a_k u^{2k},
# a_k = (-1)^k C(1/2, k) + (2k-3)!!/((2k-2)!! 2(k-1)), whose terms fall
# like (u^2)^k k^{-5/2}: past k = 40 the remainder is 5e-19 of phi at
# u = 2/3 (32 terms would reach 1e-15).  The nodes below _FAR_FLOOR R
# stay near, so r^{2-2k} cannot overflow.
_NEAR = 1.5
_SERIES_TERMS = 40
_FAR_FLOOR = 1e-3
_NODE_GROUP = 32  # node intervals per group of offsets sharing a near/far split
_NEAR_CELLS = 1 << 16  # (offset, node) pairs per near block: 512 kB temporaries


def _far_coefficients() -> np.ndarray:
    # a_2 .. a_K, with (-1)^k C(1/2, k) = -C(2k, k) / (4^k (2k - 1)) and
    # (2k-3)!!/(2k-2)!! = C(2k-2, k-1) / 4^(k-1): one exact integer ratio
    # each, rounded once by the division
    return np.array([
        (2 * (2 * k - 1) * math.comb(2 * k - 2, k - 1) - (k - 1) * math.comb(2 * k, k))
        / (4**k * (k - 1) * (2 * k - 1))
        for k in range(2, _SERIES_TERMS + 1)
    ])


_FAR_COEFFS = _far_coefficients()


def _position_marginal(nodes: np.ndarray, vals: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    # The exact projection M(t) = int p(sqrt(t^2 + y^2)) dy over all y of
    # the table's interpolant p (vals[0] below the first node, zero past the
    # last node R).  By parts in s = sqrt(r^2 - t^2), M(t) = 2 p(R) s(R) plus,
    # over nodes r_j > t, d_j (r_j s_j - t^2 ln((r_j + s_j)/t)) with d_j the
    # jump of p' at r_j.  A node r_j <= t enters as r = t and adds 0.
    # Offsets are grouped by the node interval they fall in, _NODE_GROUP
    # intervals a group, so an offset's value depends on it alone.  A group
    # whose offsets lie below node t_max sums the nodes
    # r_j < max(_NEAR t_max, _FAR_FLOOR R) in closed form, and the far
    # nodes through phi's series in units of R (rho = r/R, tau = t/R): sums
    # of d_j rho_j^2, d_j, d_j ln rho_j and d_j rho_j^{-2m}
    # (m < _SERIES_TERMS) over each group's far nodes, built once, then one
    # Horner pass in tau^2 for every offset.  This stays within 1e-14 of
    # the peak of the all-closed-form sum.
    jumps = np.diff(np.diff(vals) / np.diff(nodes), prepend=0.0, append=0.0)
    n = nodes.size
    big_r = float(nodes[-1])
    rho = nodes / big_r
    floor = int(np.searchsorted(rho, _FAR_FLOOR))
    lo_edges = np.arange(0, n + 1, _NODE_GROUP)
    top = nodes[np.minimum(lo_edges + _NODE_GROUP, n) - 1]
    splits = np.maximum(np.searchsorted(nodes, _NEAR * top), floor)
    r = rho[floor:]
    terms = np.empty((_SERIES_TERMS + 2, r.size))
    terms[0] = r * r
    terms[1] = 1.0
    terms[2] = np.log(r)
    np.cumprod(np.broadcast_to(1.0 / terms[0], (_SERIES_TERMS - 1, r.size)), axis=0, out=terms[3:])
    terms *= jumps[floor:]
    # each group's far sums: pairwise sums between consecutive splits (which
    # never decrease), then a running sum over those few pieces from the top
    edges = np.append(splits, n) - floor
    pieces = np.stack([terms[:, a:b].sum(axis=1) for a, b in zip(edges[:-1], edges[1:])], axis=1)
    tails = np.cumsum(pieces[:, ::-1], axis=1)[:, ::-1]
    sum2, sum0, sum_log = tails[:3]
    plain = np.stack((sum2, (0.5 + math.log(2.0)) * sum0 + sum_log, sum0))
    series = _FAR_COEFFS[:, None] * tails[3:]

    def marginal(t):
        t = np.abs(np.asarray(t, dtype=float))
        flat = t.ravel()
        out = 2.0 * vals[-1] * np.sqrt(np.maximum(nodes[-1] ** 2 - flat * flat, 0.0))
        group = np.searchsorted(nodes, flat, side="right") // _NODE_GROUP
        order = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[order], np.arange(lo_edges.size + 1))
        for g, lo in enumerate(lo_edges.tolist()):
            split = int(splits[g])
            rows = order[bounds[g] : bounds[g + 1]]
            step = max(1, _NEAR_CELLS // max(split - lo, 1))
            for start in range(0, rows.size, step):
                at = rows[start : start + step]
                tb = flat[at, None]
                tt = tb * tb
                r_near = np.maximum(nodes[lo:split], tb)
                s = r_near * r_near
                s -= tt
                np.sqrt(s, out=s)
                log = r_near + s
                log /= np.where(tb > 0.0, tb, 1.0)
                np.log(log, out=log)
                log *= tt
                r_near *= s
                r_near -= log
                r_near *= jumps[lo:split]
                out[at] += r_near.sum(axis=1)
        tau = flat / big_r
        x = tau * tau
        log_tau = np.log(np.where(tau > 0.0, tau, 1.0))
        poly = series[-1, group]  # Horner in x, gathering one row at a time
        for row in series[-2::-1]:
            poly *= x
            poly += row[group]
        s2, s_lin, s0 = plain[:, group]
        out += big_r * big_r * (s2 - x * (s_lin - log_tau * s0) + x * x * poly)
        return out.reshape(t.shape)

    return marginal


def position_radial_density(c: CrystalParams, m: PhaseMatchModel) -> RadialDensity:
    """The anti-diagonal position density as a radial profile.  Non-Gaussian
    models read the closed form (k_p/2)^2 |sum_e sigma_e E1(i kappa/z_e)|^2
    / norm_q over the edges z_e of chi2 (sigma_e its jump there), kappa =
    k_p rho^2/4, from a table built on each call.  Unlike the momentum
    density this depends on z0: a crystal centred on the origin (z0 = L/2)
    gives [pi/2 - Si(k_p rho^2 / (2L))]^2, while a face at z = 0 (the
    default z0 = L) develops an integrable log-squared peak at rho = 0."""
    if m.kind == "gauss":
        return gaussian_radial(variance_rho_minus(c))
    return _position_density(*_minus_key(c, m, "position"))


def _position_density(k_p: float, key: NonlinearityProfile, placed: NonlinearityProfile) -> RadialDensity:
    nodes, vals = _position_table(k_p, key, placed)

    def pdf(r):
        return np.interp(np.abs(np.asarray(r, dtype=float)), nodes, vals, right=0.0)

    return RadialDensity(pdf=pdf, half_range=float(nodes[-1]), sigma=None, marginal=_position_marginal(nodes, vals))
