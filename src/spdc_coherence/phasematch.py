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
vector.  Densities are normalized over their 2D plane.  The momentum
norms are integrated numerically once and cached (analytic for the
Gaussian model).  Every non-Gaussian momentum density is |chi(dk)|^2 /
norm_q tabulated once on nodes uniform in dk, keyed on what the modulus
depends on (k_p and L for sinc, k_p and the profile otherwise; never z0
or alpha), and read by linear interpolation within a stated bound; a
profile too fine for a table of 2^22 nodes evaluates the spectrum at each
radius instead.
Every non-Gaussian position density is one closed form: the amplitude
of each piecewise-constant segment (z_a, z_b, chi2) is
chi2 [E1(i kappa/z_b) - E1(i kappa/z_a)] with kappa = k_p rho^2 / 4, and
Parseval's theorem turns the momentum norm into the position scale, so
no position-space normalization integral or Hankel transform is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParseError
from .numerics import exp1_i, find_root, sinc
from .params import CrystalParams

__all__ = [
    "NonlinearityProfile",
    "load_profile",
    "PhaseMatchModel",
    "EXACT_SINC",
    "GAUSSIAN_APPROX",
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


@lru_cache(maxsize=16)
def _profile_momentum_norm(k_p: float, prof: NonlinearityProfile) -> float:
    # 2D integral of |chi_profile(q^2/k_p)|^2 over the q plane.
    dk_cap = 2.0 * _U_NORM / prof.min_segment_length
    q = _midpoint(_N_NORM, math.sqrt(k_p * dk_cap))
    vals = np.abs(chi_tilde_profile(q * q / k_p, prof)) ** 2
    return float(2.0 * math.pi * np.sum(q * vals) * (q[1] - q[0]))


def _modulus_key(c: CrystalParams, m: PhaseMatchModel) -> float | NonlinearityProfile:
    # what |chi(dk)|^2 of a non-Gaussian model depends on besides k_p: the
    # length of a sinc crystal, or the profile (a shift in z changes only
    # the phase, so z0 never enters; alpha belongs to the Gaussian model)
    return c.L if m.kind == "sinc" else m.profile


def _feature_lengths(key: float | NonlinearityProfile) -> tuple[float, float]:
    # (overall extent, finest feature) of the longitudinal structure named
    # by a _modulus_key; these set the position and momentum scales of the
    # densities.
    if isinstance(key, NonlinearityProfile):
        zlo, zhi = key.extent
        return zhi - zlo, key.min_segment_length
    return key, key


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
    Other models: the cached table of ``momentum_radial_density``, within
    its interpolation bound (the spectrum itself for a profile too fine to
    tabulate), and zero beyond dk_max.  Independent of z0:
    only the modulus of the spectrum enters.
    """
    return float(momentum_radial_density(c, m).pdf(_radius(q_minus)))


def p_chi_position(rho_minus, c: CrystalParams, m: PhaseMatchModel) -> float:
    """Normalized anti-diagonal position density at |rho_minus|, read from
    ``position_radial_density(c, m).pdf``.

    Gaussian model: Gaussian with per-axis variance L(alpha + 1/alpha)/(2 k_p).
    Every other model: the closed form (k_p/2)^2 |sum_seg chi2 [E1(i kappa/z_b)
    - E1(i kappa/z_a)]|^2 / norm_q with kappa = k_p rho^2/4, tabulated once
    per (crystal, model).  Unlike the momentum density this depends on z0
    through the spectrum's phase: a crystal centred on the origin (z0 = L/2)
    gives [pi/2 - Si(k_p rho^2 / (2L))]^2, while a face at z = 0 (the
    default z0 = L) develops an integrable log-squared peak at rho = 0
    (pairs born at that face have had no distance to spread).
    """
    return float(position_radial_density(c, m).pdf(_radius(rho_minus)))


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


def _momentum_norm(k_p: float, key: float | NonlinearityProfile) -> float:
    # integral of |chi(q^2/k_p)|^2 over the q plane, non-Gaussian models
    if isinstance(key, NonlinearityProfile):
        return _profile_momentum_norm(k_p, key)
    return 2.0 * math.pi * (k_p / key) * _sinc_sq_area()


# Momentum tables are uniform in dk with spacing h <= _DK_STEP / E, E the
# profile extent (L for sinc).  A shift in z leaves |chi|^2 unchanged, so
# its second dk-derivative is at most E^2 (sum |chi2| h_seg)^2 and linear
# interpolation errs by at most _DK_STEP^2/8 = 3.1e-5 of the density's
# bound (sum |chi2| h_seg)^2 / norm_q; for sinc the exact value is
# _DK_STEP^2/48 = 5.1e-6 of the peak.
_DK_STEP = 1.0 / 64.0
# nodes per block of the build: keeps chi_tilde_profile's complex
# temporaries near 1 MB each
_DK_BLOCK = 65536
# A table needs 256,000 E/feature nodes of 16 bytes: 4 MB for sinc, 8 MB
# for a poled pair, 66 MB for a 16-segment stack.  Above 2^22 nodes (64 MB,
# a quarter of the 4097 x 4096 reads of one marginal build) a profile's
# density evaluates the spectrum at each radius it is asked for instead, so
# a thin segment in a long profile costs no more memory than the reads.
_DK_NODES_MAX = 1 << 22


def _modulus_sq(key: float | NonlinearityProfile) -> Callable[[np.ndarray], np.ndarray]:
    # |chi(dk)|^2 of the sinc crystal of length key, or of the profile key
    if isinstance(key, NonlinearityProfile):
        return lambda dk: np.abs(chi_tilde_profile(dk, key)) ** 2
    return lambda dk: sinc(0.5 * dk * key) ** 2


def _table_nodes(key: float | NonlinearityProfile) -> int:
    # intervals of the momentum table for key: h = dk_max / n <= _DK_STEP / E
    extent, feature = _feature_lengths(key)
    return math.ceil(4.0 * _U_HALF * (extent / feature) / _DK_STEP)


# The marginals built from a table have their own cache, so only a few
# tables are kept: at most 4 x 64 MB.
@lru_cache(maxsize=4)
def _momentum_table(
    k_p: float, key: float | NonlinearityProfile
) -> tuple[float, np.ndarray, np.ndarray]:
    """|chi(dk)|^2 / norm_q of a sinc crystal of length ``key``, or of the
    profile ``key``, on nodes dk = k h, k = 0..n, spanning [0, dk_max] with
    dk_max = 2 half^2 / k_p: the corner radius sqrt2 half of the marginal
    quadrature.  Returns (h, base, slope), so that base[k] + f slope[k]
    interpolates on [k h, (k + 1) h]; base[n] = slope[n] = 0 read as zero
    from dk_max on."""
    modulus_sq = _modulus_sq(key)
    _, feature = _feature_lengths(key)
    n = _table_nodes(key)
    h = (4.0 * _U_HALF / feature) / n
    vals = np.empty(n + 1)
    for start in range(0, n + 1, _DK_BLOCK):
        stop = min(start + _DK_BLOCK, n + 1)
        vals[start:stop] = modulus_sq(np.arange(start, stop) * h)
    vals /= _momentum_norm(k_p, key)
    slope = np.empty(n + 1)
    np.subtract(vals[1:], vals[:-1], out=slope[:n])
    slope[n] = vals[n] = 0.0
    vals.setflags(write=False)
    slope.setflags(write=False)
    return h, vals, slope


def _direct_momentum_pdf(
    k_p: float, key: float | NonlinearityProfile, dk_max: float
) -> Callable[[np.ndarray], np.ndarray]:
    # |chi(q^2/k_p)|^2 / norm_q evaluated at each radius, zero from dk_max
    # on as the table reads: the route of profiles too fine to tabulate
    modulus_sq = _modulus_sq(key)
    norm = _momentum_norm(k_p, key)

    def pdf(q):
        q = np.asarray(q, dtype=float)
        dk = q * q / k_p
        inside = dk < dk_max
        out = np.zeros(q.shape)
        out[inside] = modulus_sq(dk[inside]) / norm
        return out

    return pdf


def momentum_radial_density(c: CrystalParams, m: PhaseMatchModel) -> RadialDensity:
    """The anti-diagonal momentum density as a radial profile.  Non-Gaussian
    models read one cached table per (k_p, L) or (k_p, profile): linear in
    dk = q^2/k_p within 3.1e-5 of (sum |chi2| h_seg)^2 / norm_q (5.1e-6 of
    the peak for sinc), and zero beyond dk_max = 2 half_range^2 / k_p.  A
    profile whose extent exceeds about 16 of its thinnest segments would
    need more than 2^22 nodes; its density evaluates the spectrum at each
    radius instead, exactly and likewise zero beyond dk_max."""
    if m.kind == "gauss":
        return _gaussian_radial(variance_q_minus(c))
    key = _modulus_key(c, m)
    _, feature = _feature_lengths(key)
    half = math.sqrt(2.0 * _U_HALF * c.k_p / feature)
    if _table_nodes(key) > _DK_NODES_MAX:
        pdf = _direct_momentum_pdf(c.k_p, key, 2.0 * half * half / c.k_p)
        return RadialDensity(pdf=pdf, half_range=half, sigma=None)
    h, base, slope = _momentum_table(c.k_p, key)
    scale = 1.0 / (h * c.k_p)
    last = base.size - 1

    def pdf(q):
        # direct index into the uniform table, fmin also sending non-finite
        # radii past its end; in place, because fresh block-sized
        # temporaries cost more than the arithmetic
        q = np.asarray(q, dtype=float)
        x = np.multiply(q, q, out=np.empty(q.shape))
        x *= scale
        np.fmin(x, last, out=x)
        i = x.astype(np.intp)
        x -= i
        x *= slope[i]
        x += base[i]
        return x

    return RadialDensity(pdf=pdf, half_range=half, sigma=None)


def _position_kernel(rho: np.ndarray, c: CrystalParams, m: PhaseMatchModel) -> np.ndarray:
    # Closed-form position density at radii rho > 0.  The 2D Fourier
    # transform of e^{i q^2 z / k_p} is (i pi k_p / z) e^{-i kappa / z},
    # kappa = k_p rho^2 / 4, so each segment's amplitude integrates to
    # chi2 [E1(i kappa/z_b) - E1(i kappa/z_a)]; a face at z = 0 adds
    # E1(i inf) = 0, and a segment that straddles 0 splits there into the
    # same two end terms.  Parseval fixes the scale from the momentum
    # norm: density = (k_p/2)^2 |sum|^2 / norm_q.  The sinc model is the
    # one segment [z0 - L, z0] with chi2 = 1/L, matching chi_tilde_sinc's
    # dropped length factor.
    segments = m.profile.segments if m.kind == "profile" else ((c.z0 - c.L, c.z0, 1.0 / c.L),)
    kappa = 0.25 * c.k_p * rho * rho
    total = np.zeros(rho.shape, dtype=complex)
    for za, zb, amp in segments:
        if zb != 0.0:
            total += amp * exp1_i(kappa / zb)
        if za != 0.0:
            total -= amp * exp1_i(kappa / za)
    norm_q = _momentum_norm(c.k_p, _modulus_key(c, m))
    return (0.5 * c.k_p) ** 2 * (total.real**2 + total.imag**2) / norm_q


# linear interpolation between these nodes errs by h^2/8 max|f''|: at most
# 7e-5 of the largest value on 1-50 um for the exit-face, z0 = 1.5 L and
# poled-pair densities at L = 1000 um, k_p = 10 rad/um
_TABLE_NODES = 2048


@lru_cache(maxsize=8)
def _position_table(c: CrystalParams, m: PhaseMatchModel) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form position density of a non-Gaussian model on a
    radial table, cached per (crystal, model).  Quadratic midpoint nodes
    rho_max ((k + 1/2)/n)^2 crowd towards the origin, where a face at
    z = 0 puts a log-squared peak, and never touch its divergence."""
    length, _ = _feature_lengths(_modulus_key(c, m))
    rho_max = math.sqrt(2.0 * _U_HALF * length / c.k_p)
    t = _midpoint(_TABLE_NODES, 1.0)
    nodes = rho_max * t * t
    dens = _position_kernel(nodes, c, m)
    nodes.setflags(write=False)
    dens.setflags(write=False)
    return nodes, dens


def position_radial_density(c: CrystalParams, m: PhaseMatchModel) -> RadialDensity:
    """The anti-diagonal position density as a radial profile."""
    if m.kind == "gauss":
        return _gaussian_radial(variance_rho_minus(c))
    nodes, vals = _position_table(c, m)

    def pdf(r):
        return np.interp(np.abs(np.asarray(r, dtype=float)), nodes, vals, right=0.0)

    return RadialDensity(pdf=pdf, half_range=float(nodes[-1]), sigma=None)
