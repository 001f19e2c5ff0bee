"""Longitudinal phase matching: the spectrum chi_tilde of the nonlinearity
profile, its calibrated Gaussian stand-in, the anti-diagonal (minus
coordinate) densities in momentum and position, and the Fresnel wave-vector
mismatch.

Geometry convention: a uniform crystal ``CrystalParams(L=L, z0=z0)``
occupies [z0 - L, z0], i.e. z0 is the exit face.  Under the e^{+i dk z}
transform its spectrum is L e^{i dk (z0 - L/2)} sinc(dk L/2); choosing
z0 = L/2 centres the crystal on the origin and kills the phase, z0 = L
puts the entrance face at the origin (the default).  The phase is
irrelevant in momentum space (only |chi|^2 enters) but reshapes the
position density, so the two defaults are genuinely different there.

Everything is expressed through the mismatch dk; for a degenerate pair
dk = q_minus^2 / k_p with q_minus the anti-diagonal transverse wave
vector.  Densities are normalized over their 2D plane; normalization
integrals are evaluated numerically once and cached (analytically for
the Gaussian model).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParaxialityWarning, ParseError
from .numerics import bessel_j0, find_root, sinc, sine_integral
from .params import CrystalParams

__all__ = [
    "NonlinearityProfile",
    "load_profile",
    "PhaseMatchModel",
    "EXACT_SINC",
    "GAUSSIAN_APPROX",
    "delta_kappa",
    "chi_tilde_sinc",
    "chi_tilde_profile",
    "chi_tilde_gauss",
    "chi_tilde",
    "calibrate_alpha",
    "variance_q_minus",
    "variance_rho_minus",
    "p_chi_momentum",
    "p_chi_position",
    "RadialDensity",
    "momentum_radial_density",
    "position_radial_density",
]

_TAYLOR_SWITCH = 1e-5  # |dk| * segment length below which the series is used

# Dimensionless cutoffs for the heavy-tailed sinc-family densities, in the
# natural argument u (= dk * feature / 2).  The tail mass beyond u is
# ~ 1/(pi u): 1000 keeps default grids above 99.9% capture, 4000 puts the
# normalization integrals at the 1e-4 level.
_U_HALF = 1000.0
_U_NORM = 4000.0
_N_NORM = 32768


@dataclass(frozen=True)
class NonlinearityProfile:
    """Piecewise-constant longitudinal chi(2) profile.

    segments: (z_start, z_end, chi2) triples (um, um, signed amplitude),
    stored sorted by z_start.  Signed amplitudes encode periodic poling.
    """

    segments: tuple[tuple[float, float, float], ...]

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

    @property
    def extent(self) -> tuple[float, float]:
        return self.segments[0][0], self.segments[-1][1]

    @property
    def min_segment_length(self) -> float:
        return min(b - a for a, b, _ in self.segments)

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


def load_profile(path) -> NonlinearityProfile:
    """Read a profile from CSV rows of (z_start, z_end, chi2).

    '#' comments and blank lines are skipped; a single non-numeric header
    row is tolerated.  Malformed rows raise ParseError with the line number.
    """
    segments: list[tuple[float, float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ParseError(str(path), lineno, f"expected 3 comma-separated values, got {len(parts)}")
            try:
                seg = (float(parts[0]), float(parts[1]), float(parts[2]))
            except ValueError:
                if lineno == 1 and not segments:
                    continue  # header row
                raise ParseError(str(path), lineno, f"cannot parse row {line!r}") from None
            segments.append(seg)
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
            raise ValueError(f"unknown phase-match model kind {self.kind!r}")
        if (self.kind == "profile") != (self.profile is not None):
            raise ValueError("profile models need a NonlinearityProfile, others must not carry one")

    @classmethod
    def from_profile(cls, prof: NonlinearityProfile) -> "PhaseMatchModel":
        return cls("profile", prof)


EXACT_SINC = PhaseMatchModel("sinc")
GAUSSIAN_APPROX = PhaseMatchModel("gauss")


def delta_kappa(q_s, q_i, c: CrystalParams) -> float:
    """Fresnel longitudinal wave-vector mismatch of a signal/idler pair of
    transverse wave vectors: (beta q_s - q_i/beta)^2 / (2 k_p).

    Degenerate case beta = 1: equals q_minus^2 / k_p.  Warns (does not
    raise) when either |q| exceeds 0.2 k_p, where the paraxial expansion
    behind this formula starts to strain.
    """
    qs = np.asarray(q_s, dtype=float)
    qi = np.asarray(q_i, dtype=float)
    if math.sqrt(float(qs @ qs)) > 0.2 * c.k_p or math.sqrt(float(qi @ qi)) > 0.2 * c.k_p:
        warnings.warn(
            "transverse wave vector above 0.2 k_p: Fresnel mismatch is getting inaccurate",
            ParaxialityWarning,
            stacklevel=2,
        )
    d = c.beta * qs - qi / c.beta
    return float(d @ d) / (2.0 * c.k_p)


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


def chi_tilde_gauss(q_minus, c: CrystalParams):
    """Gaussian stand-in with matched 1/e width and the exit-face
    (z0 = L) quadratic phase: exp[(i - alpha) q_minus^2 L / (2 k_p)]."""
    q = np.asarray(q_minus, dtype=float)
    q2 = q @ q if q.ndim == 1 else np.sum(q * q, axis=-1)
    return chi_tilde(q2 / c.k_p, c, GAUSSIAN_APPROX)


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


# -- normalization machinery -------------------------------------------------

def _midpoint(n: int, hi: float) -> np.ndarray:
    return (np.arange(n) + 0.5) * (hi / n)


def _midpoint_richardson(f: Callable[[np.ndarray], np.ndarray], hi: float, n: int) -> float:
    # Composite midpoint at n and 2n panels, Richardson-combined.  The
    # plain rule carries an (h^2/24)[f'(hi) - f'(0)] boundary term that
    # matters for integrands with a steep start; this cancels it.
    coarse = float(np.sum(f(_midpoint(n, hi)))) * (hi / n)
    fine = float(np.sum(f(_midpoint(2 * n, hi)))) * (hi / (2 * n))
    return (4.0 * fine - coarse) / 3.0


@lru_cache(maxsize=1)
def _sinc_sq_area() -> float:
    # int_0^inf sinc^2(u) du, truncated at _U_NORM.  Kept numerical (the
    # analytic value is pi/2) so the closed forms stay independently
    # checkable against this route.
    return _midpoint_richardson(lambda u: sinc(u) ** 2, _U_NORM, _N_NORM)


@lru_cache(maxsize=1)
def _si_form_area() -> float:
    # int_0^inf [pi/2 - Si(s)]^2 ds, truncated at _U_NORM (analytically
    # pi/2 as well; the shared value is a coincidence of the two Fourier
    # partners, not reused here).
    return _midpoint_richardson(
        lambda s: (math.pi / 2.0 - sine_integral(s)) ** 2, _U_NORM, _N_NORM
    )


@lru_cache(maxsize=16)
def _profile_momentum_norm(k_p: float, prof: NonlinearityProfile) -> float:
    # 2D integral of |chi_profile(q^2/k_p)|^2 over the q plane.
    dk_cap = 2.0 * _U_NORM / prof.min_segment_length
    q = _midpoint(_N_NORM, math.sqrt(k_p * dk_cap))
    vals = np.abs(chi_tilde_profile(q * q / k_p, prof)) ** 2
    return float(2.0 * math.pi * np.sum(q * vals) * (q[1] - q[0]))


def _feature_lengths(c: CrystalParams, m: PhaseMatchModel) -> tuple[float, float]:
    # (overall extent, finest feature) of the longitudinal structure;
    # these set the position and momentum scales of the densities.
    if m.kind == "profile":
        zlo, zhi = m.profile.extent
        return zhi - zlo, m.profile.min_segment_length
    return c.L, c.L


@lru_cache(maxsize=1)
def _u_sinc_1e() -> float:
    # abscissa where sinc^2 drops to 1/e
    return find_root(lambda u: sinc(u) ** 2 - math.exp(-1.0), 1.0, 2.0, tol=1e-13)


def _radius(v) -> float:
    # |v| of a scalar radius or a 2-vector
    v = np.asarray(v, dtype=float)
    return math.sqrt(float(v @ v)) if v.ndim == 1 else abs(float(v))


def p_chi_momentum(q_minus, c: CrystalParams, m: PhaseMatchModel) -> float:
    """Normalized anti-diagonal momentum density |chi(q^2/k_p)|^2 / norm
    at |q_minus|, read from ``momentum_radial_density(c, m).pdf``.

    Gaussian model: analytic, (alpha L / (pi k_p)) exp[-alpha q^2 L/k_p].
    Other models: numerically normalized (cached).  Independent of z0:
    only the modulus of the spectrum enters.
    """
    return float(momentum_radial_density(c, m).pdf(_radius(q_minus)))


def _si_density(rho, L: float, k_p: float):
    # centred-crystal (z0 = L/2) closed form [pi/2 - Si(k_p rho^2/(2L))]^2,
    # divided by its integral over the rho plane; vectorized in rho
    s = k_p * rho * rho / (2.0 * L)
    return (math.pi / 2.0 - sine_integral(s)) ** 2 / (2.0 * math.pi * (L / k_p) * _si_form_area())


_TABLE_NODES = 1024
_TABLE_QUAD = 8192
_U_QUAD = 1200.0  # quadrature cutoff for the numerical position transform


@lru_cache(maxsize=8)
def _position_table(c: CrystalParams, m: PhaseMatchModel) -> tuple[np.ndarray, np.ndarray]:
    """Normalized position density of a non-Gaussian model on a radial
    table, via the order-0 Hankel transform of the complex spectrum
    (real and imaginary parts transformed separately, then modulus
    squared, then normalized).  Cached per (crystal, model)."""
    length, feature = _feature_lengths(c, m)
    q_max = math.sqrt(2.0 * _U_QUAD * c.k_p / feature)
    q = _midpoint(_TABLE_QUAD, q_max)
    hq = q_max / _TABLE_QUAD
    spectrum = np.asarray(chi_tilde(q * q / c.k_p, c, m), dtype=complex)
    wre = q * spectrum.real
    wim = q * spectrum.imag

    rho_max = math.sqrt(2.0 * _U_HALF * length / c.k_p)
    # quadratic node spacing: exit-face geometries develop an integrable
    # log^2 peak at rho = 0 that uniform nodes tally poorly
    t = np.linspace(0.0, 1.0, _TABLE_NODES)
    nodes = rho_max * t * t
    dens = np.empty(_TABLE_NODES)
    for start in range(0, _TABLE_NODES, 64):
        block = nodes[start : start + 64]
        j = bessel_j0(np.outer(block, q))
        re = j @ wre
        im = j @ wim
        dens[start : start + 64] = re * re + im * im
    dens *= (hq / (2.0 * math.pi)) ** 2
    mass = 2.0 * math.pi * float(np.trapezoid(nodes * dens, nodes))
    dens /= mass
    nodes.setflags(write=False)
    dens.setflags(write=False)
    return nodes, dens


def p_chi_position(rho_minus, c: CrystalParams, m: PhaseMatchModel) -> float:
    """Normalized anti-diagonal position density.

    Gaussian model: Gaussian with per-axis variance L(alpha + 1/alpha)/(2 k_p).
    Exact boxcar with z0 = L/2 (origin-centred crystal): the closed form
    [pi/2 - Si(k_p rho^2 / (2L))]^2, numerically normalized.  Any other
    geometry or profile: numerical Hankel route (tabulated, cached).
    Unlike the momentum density this depends on z0 through the spectrum's
    phase; z0 = L develops a weak integrable logarithmic peak at rho = 0
    (pairs born at the exit face have had no distance to spread).
    The closed form is evaluated exactly; every other route is
    ``position_radial_density(c, m).pdf`` at |rho_minus|.
    """
    rho = _radius(rho_minus)
    if m.kind == "sinc" and c.z0 == 0.5 * c.L:
        return float(_si_density(rho, c.L, c.k_p))
    return float(position_radial_density(c, m).pdf(rho))


# -- radial density providers for the joint module ---------------------------

class RadialDensity(NamedTuple):
    """A normalized, radially symmetric 2D density.

    pdf: vectorized radius -> density.  half_range: radius capturing all
    but a few 1e-4 of the mass.  sigma: per-axis standard deviation when
    the density is Gaussian, else None (heavy-tailed sinc family).
    """

    pdf: Callable[[np.ndarray], np.ndarray]
    half_range: float
    sigma: float | None


def _gaussian_radial(var: float) -> RadialDensity:
    def pdf(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r / (2.0 * var)) / (2.0 * math.pi * var)

    sigma = math.sqrt(var)
    return RadialDensity(pdf=pdf, half_range=5.0 * sigma, sigma=sigma)


def momentum_radial_density(c: CrystalParams, m: PhaseMatchModel) -> RadialDensity:
    """The anti-diagonal momentum density as a radial profile."""
    if m.kind == "gauss":
        return _gaussian_radial(variance_q_minus(c))
    _, feature = _feature_lengths(c, m)
    half = math.sqrt(2.0 * _U_HALF * c.k_p / feature)
    if m.kind == "sinc":
        norm = 2.0 * math.pi * (c.k_p / c.L) * _sinc_sq_area()

        def pdf(q):
            q = np.asarray(q, dtype=float)
            return sinc(q * q * c.L / (2.0 * c.k_p)) ** 2 / norm

    else:
        norm = _profile_momentum_norm(c.k_p, m.profile)
        prof = m.profile

        def pdf(q):
            q = np.asarray(q, dtype=float)
            return np.abs(chi_tilde_profile(q * q / c.k_p, prof)) ** 2 / norm

    return RadialDensity(pdf=pdf, half_range=half, sigma=None)


@lru_cache(maxsize=8)
def _si_closed_form_table(L: float, k_p: float) -> tuple[np.ndarray, np.ndarray]:
    # Radial table of the z0 = L/2 closed form, for the marginal
    # quadrature; p_chi_position evaluates the closed form exactly.
    rho_max = math.sqrt(2.0 * _U_HALF * L / k_p)
    nodes = np.linspace(0.0, rho_max, 2048)
    vals = _si_density(nodes, L, k_p)
    nodes.setflags(write=False)
    vals.setflags(write=False)
    return nodes, vals


def position_radial_density(c: CrystalParams, m: PhaseMatchModel) -> RadialDensity:
    """The anti-diagonal position density as a radial profile."""
    if m.kind == "gauss":
        return _gaussian_radial(variance_rho_minus(c))
    if m.kind == "sinc" and c.z0 == 0.5 * c.L:
        nodes, vals = _si_closed_form_table(c.L, c.k_p)
    else:
        nodes, vals = _position_table(c, m)

    def pdf(r):
        return np.interp(np.abs(np.asarray(r, dtype=float)), nodes, vals, right=0.0)

    return RadialDensity(pdf=pdf, half_range=float(nodes[-1]), sigma=None)
