"""Self-contained numerical kernels: special functions (Si, E1 on the
imaginary axis, the Fresnel integral, J0), the radially symmetric density
record and its one 2D Gaussian, a radial (order-0 Hankel) transform,
bisection, discrete moment extraction, and the text formatting of float
arrays.

Every special function (and phasematch's ramp kernel) splits its domain
in one place, ``_split_domain``: a power series up to the split, |x| = 4
for Si and E1 on the imaginary axis, 2 for the complex Fresnel integral and
12 for J0, each one Horner polynomial in x^2 on its exact coefficients
rounded once; a tail beyond it; and the function's limit from where the
tail ends on (infinity, or 2^512 for the Fresnel integral).  The tails of
Si, E1 and the Fresnel integral are one continued fraction of the upper
incomplete gamma function Gamma(a, z), a = 0 for E1 and Si and a = 1/2 for
the Fresnel integral, run in numpy complex arithmetic; J0's is the
modulus-phase form of Hankel's expansion, one cosine per point, within
5.4e-12 of scipy's j0 on [0, 3000].  The error bounds in the docstrings
were measured against 40-digit mpmath values; mpmath is not a dependency.
An array input returns a new array of its shape that the caller owns,
with bits that do not depend on how many points the call holds; the
Hankel transform takes an array of radii in one call.

Nothing in here knows about pumps or crystals.  The physics modules quote
closed-form results, and `validation._route_marginal` is the independent
numerical route they are checked against.  J0 and `hankel0` serve tests
alone; they stay because perfbench's tracer binds them.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridTooCoarse, NegativeArgument, NonPositiveParameter, NoSignChange, ZeroMass

__all__ = [
    "sinc",
    "sine_integral",
    "exp1_i",
    "fresnel",
    "bessel_j0",
    "RadialDensity",
    "gaussian_radial",
    "hankel0",
    "find_root",
    "Moments",
    "grid_moments",
]

_SINC_SERIES_CUTOFF = 1e-4
_SI_SPLIT = 4.0
_EULER_GAMMA = 0.5772156649015329


def sinc(x):
    """sin(x)/x with the removable singularity filled by its Taylor series.

    Unnormalized convention (no pi).  Accepts scalars or arrays.  Below
    |x| = 1e-4 the quartic series keeps the error under 1e-14.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, x)
    x2 = x * x
    out = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


# Each power series here is one Horner polynomial in w = x^2 on its exact
# coefficients rounded once (the tests re-derive them); a complex one is
# built as 1j**n * (1 / den), since 1j**n / den rounds den to a float first.
# Si(x) = x sum_k (-1)^k w^k / ((2k+1) (2k+1)!), 21 terms: the remainder
# is below 1e-20 at x = 4
_SI_SERIES = tuple((-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(21))
# Ci(x) = gamma + ln x + sum_{k>=1} (-1)^k w^k / (2k (2k)!), 20 terms past
# the constant 0: the remainder is below 1e-19 at x = 4
_CI_SERIES = (0.0,) + tuple((-1) ** k / (2 * k * math.factorial(2 * k)) for k in range(1, 21))


def _horner(coeffs, w: np.ndarray) -> np.ndarray:
    # sum over k of coeffs[k] w^k, in place on one fresh buffer
    acc = coeffs[-1] * w
    for a in coeffs[-2:0:-1]:
        acc += a
        acc *= w
    acc += coeffs[0]
    return acc


def _split_domain(x: np.ndarray, split: float, top: float, limit: complex, near: Callable, far: Callable) -> np.ndarray:
    # near(x) where x <= split, far(x) where split < x < top (NaN too) and
    # the limit from top on, for x >= 0 of any shape, into a new array: the
    # one series-or-tail dispatch of every kernel here.  Each piece runs only
    # on a nonempty set (on nothing, _gamma_cf would make all its steps).
    out = np.full(x.shape, limit)
    small = x <= split
    large = ~(small | (x >= top))
    if small.any():
        out[small] = near(x[small])
    if large.any():
        out[large] = far(x[large])
    return out


def _gamma_cf(a: float, z: np.ndarray) -> np.ndarray:
    # e^z z^(-a) Gamma(a, z) by the modified Lentz recursion of its continued
    # fraction, b_i = z + 2i - 1 - a and a_i = -(i-1)(i-1-a).  On the
    # imaginary axis at |z| > 4, as used here, it reaches machine precision
    # within 48 steps (3 at |z| = 1e4).  Each element stops at its own
    # convergence and leaves the working set.
    n = z.size
    out = np.empty(n, dtype=complex)
    idx = np.arange(n)
    c = np.full(n, 1e308, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 / (z + (1.0 - a))
        h = d
        for i in range(2, 500):
            a_i = -(i - 1) * (i - 1 - a)
            b = z + (2 * i - 1 - a)
            d = 1.0 / (a_i * d + b)
            c = b + a_i / c
            delta = c * d
            h = h * delta
            done = np.abs(delta - 1.0) < 1e-16
            if np.count_nonzero(done):
                out[idx[done]] = h[done]
                keep = ~done
                idx, z, c, d, h = (v[keep] for v in (idx, z, c, d, h))
                if not idx.size:
                    break
    out[idx] = h
    return out


def _e1_large(x: np.ndarray) -> np.ndarray:
    # E1(ix) = Gamma(0, ix), e^{-ix} times the fraction at z = ix, for x > 4:
    # there the divergent asymptotic series cannot reach 1e-10, but the
    # fraction converges to machine precision
    return np.exp(-1j * x) * _gamma_cf(0.0, 1j * x)


def sine_integral(x):
    """Si(x), the integral of sin(t)/t from 0 to x, for x >= 0.

    Power series up to x = 4, above it pi/2 + Im E1(ix) by the continued
    fraction of ``exp1_i``.  Absolute error below 1e-15 on [0, 1e4]
    (largest 8.9e-16, in the series near x = 3.9); Si(inf) = pi/2.
    A scalar or 0-d x returns a float, an array a new one of its shape.
    Negative arguments raise NegativeArgument: all callers here pass
    quadratic phases, so the odd extension is intentionally not provided.
    """
    arr = np.asarray(x, dtype=float)
    negative = arr < 0.0
    if negative.any():
        raise NegativeArgument(f"sine_integral needs x >= 0, got {float(arr[negative][0])!r}")
    # x itself, not |x|: Si(-0.0) = -0.0
    out = _split_domain(arr, _SI_SPLIT, math.inf, math.pi / 2,
                        lambda xs: xs * _horner(_SI_SERIES, xs * xs),
                        lambda xl: math.pi / 2 + _e1_large(xl).imag)
    return float(out) if out.ndim == 0 else out


def _e1_series(x: np.ndarray) -> np.ndarray:
    # -Ci(x) + i (Si(x) - pi/2) from the two power series
    w = x * x
    ci = _EULER_GAMMA + np.log(x) + _horner(_CI_SERIES, w)
    return -ci + 1j * (x * _horner(_SI_SERIES, w) - math.pi / 2)


def exp1_i(x):
    """E1(ix) = -Ci(x) + i (Si(x) - pi/2), the exponential integral on the
    imaginary axis, for real x != 0.

    Power series up to |x| = 4, above it e^{-ix} times the continued
    fraction of e^z Gamma(0, z) at z = ix; negative x gives the complex
    conjugate.  Relative error below 5.7e-15 for 1e-9 <= |x| <= 1e4
    (largest 5.6e-15, in the series near x = 3.97, where its terms cancel
    most; E1 diverges like -ln|x| at 0);
    E1(+-i inf) = 0.  A scalar or 0-d x returns a complex, an array a new
    one of its shape.
    """
    arr = np.asarray(x, dtype=float)
    out = _split_domain(np.abs(arr), _SI_SPLIT, math.inf, 0j, _e1_series, _e1_large)
    out.imag[arr < 0.0] *= -1.0
    return complex(out) if out.ndim == 0 else out


_FRESNEL_SPLIT = 2.0
_FRESNEL_LIMIT = 0.5 * math.sqrt(math.pi) * complex(math.sqrt(0.5), math.sqrt(0.5))
_FRESNEL_HUGE = 2.0**512  # x^2 overflows; the tail, ~1/(2x), vanished long before
# F(x) = x sum_n i^n w^n / (n! (2n+1)); at x = 2 the terms peak near 2.4
# and 41 of them take the remainder below 1e-25
_FRESNEL_SERIES = tuple(1j**n * (1 / (math.factorial(n) * (2 * n + 1))) for n in range(41))


def fresnel(x):
    """F(x) = int_0^x e^{i v^2} dv, the complex Fresnel integral in the
    unnormalized convention (C + iS of scipy's fresnel at x sqrt(2/pi),
    times sqrt(pi/2)); odd in x, tending to (sqrt(pi)/2) e^{i pi/4}.

    Power series up to |x| = 2, above it the limit minus the tail, the
    continued fraction of e^z z^(-1/2) Gamma(1/2, z) at z = -ix^2.  Absolute
    error below 1e-15 for |x| <= 10 (largest 8.4e-16 in the series, 8.5e-16
    just above the split); above, the rounding of x^2 in the phase
    dominates, at most |x| eps / 4 < 5.6e-17 |x| (largest 5.04e-15 on
    [0, 100], at x = 91.0).  From |x| = 2^512, where x^2 overflows, up to
    F(+-inf) it returns the limit +-(sqrt(pi)/2) e^{i pi/4}.  A scalar or
    0-d x returns a complex, an array a new one of its shape.
    """
    arr = np.asarray(x, dtype=float)
    # the tail int_x^inf e^{iv^2} dv = (x/2) e^{ix^2} e^z z^(-1/2) Gamma(1/2, z), z = -ix^2
    out = _split_domain(np.abs(arr), _FRESNEL_SPLIT, _FRESNEL_HUGE, _FRESNEL_LIMIT,
                        lambda xs: xs * _horner(_FRESNEL_SERIES, xs * xs),
                        lambda xl: _FRESNEL_LIMIT - 0.5 * xl * np.exp(1j * xl * xl) * _gamma_cf(0.5, -1j * xl * xl))
    out[arr < 0.0] *= -1.0
    return complex(out) if out.ndim == 0 else out


_J0_SPLIT = 12.0
# 1/(k!)^2, the power series of J0 in -x^2/4, 41 terms past the constant
_J0_SERIES = tuple(1 / math.factorial(k) ** 2 for k in range(42))
# Beyond the split, Hankel's expansion sqrt(2/(pi x)) (P cos chi - Q sin chi)
# with chi = x - pi/4 in modulus-phase form: M = P^2 + Q^2 and
# Phi = atan(Q/P), both series in y = 1/x built from the Hankel symbols
# c_m = prod_{j<=m} (2j-1)^2 / (8^m m!) and truncated after y^13.  These are
# the exact fractions rounded once (the tests re-derive them): the
# coefficients of y^0, y^2, ..., y^12 in M and of y^1, y^3, ..., y^13 in Phi.
_J0_MODULUS = (
    1.0, -0.125, 0.2109375, -1.0986328125, 11.775970458984375, -214.61706161499023, 5951.152271032333,
)
_J0_PHASE = (
    -0.125, 0.06510416666666667, -0.2095703125, 1.6380658830915178, -23.475127749972874,
    535.640519510616, -17837.279688947478,
)


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    # sqrt(2 M(y) y / pi) cos(x + (Phi(y) - pi/4)): one cosine per point
    y = 1.0 / x
    y2 = y * y
    amp = _horner(_J0_MODULUS, y2)
    amp *= y
    amp *= 2.0 / math.pi
    np.sqrt(amp, out=amp)
    phase = _horner(_J0_PHASE, y2)
    phase *= y
    phase -= math.pi / 4.0
    phase += x
    np.cos(phase, out=phase)
    amp *= phase
    return amp


def bessel_j0(x):
    """Bessel function J0 by its power series (|x| <= 12) and beyond by the
    modulus-phase form of Hankel's expansion, sqrt(2 M(1/x) / (pi x))
    cos(x - pi/4 + Phi(1/x)), with one cosine per point.  Absolute error
    below 5.4e-12 against scipy's j0 on [0, 3000] (measured 5.34e-12, just
    above the split); J0(+-inf) = 0.0 and NaN stays NaN.  A scalar or 0-d
    x returns a float, an array a new one of its shape.
    """
    out = _split_domain(np.abs(np.asarray(x, dtype=float)), _J0_SPLIT, math.inf, 0.0,
                        lambda xs: _horner(_J0_SERIES, -0.25 * (xs * xs)), _j0_asymptotic)
    return float(out) if out.ndim == 0 else out


class RadialDensity(NamedTuple):
    """A normalized, radially symmetric 2D density.

    pdf: vectorized radius -> density.  sigma: the per-axis standard
    deviation of a Gaussian, else None (heavy-tailed sinc family).
    marginal: the exact 1D marginal, always set, vectorized offset t ->
    integral of pdf(sqrt(t^2 + y^2)) over every y.
    offsets: where a non-Gaussian factor tabulates marginal, ascending
    from 0 to the table's reach; None for a Gaussian, whose marginal is
    read directly.  A momentum density spreads them uniformly, and its
    reach holds all but a few 1e-4 of the mass.  A position density puts
    them at its own table radii, crowded towards the cusp, and is zero
    beyond the last, so its rho^-4 tail is missing: at L = 1000 um and
    k_p = 10 it integrates to 0.999381 (exit-face sinc), 0.999692
    (centred sinc) and 0.998737 (poled pair).  Its marginal is checked
    against the u = 1/z route, which has no table radius
    (`validation.check_position_marginal_route` for sinc,
    `tests/oracles.py` for any profile).
    """

    pdf: Callable[[np.ndarray], np.ndarray]
    sigma: float | None
    marginal: Callable[[np.ndarray], np.ndarray]
    offsets: np.ndarray | None = None


def gaussian_radial(var: float) -> RadialDensity:
    """The 2D Gaussian of per-axis variance var, peak 1/(2 pi var), and its
    1D marginal: every Gaussian factor's one density."""

    def pdf(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r / (2.0 * var)) / (2.0 * math.pi * var)

    sigma = math.sqrt(var)
    s2 = sigma * sigma  # may round apart from var; grid bits follow s2

    def marginal(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-t * t / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)

    return RadialDensity(pdf=pdf, sigma=sigma, marginal=marginal)


def hankel0(values, r_max: float, rho):
    """Order-0 Hankel transform (1/2pi) * int q f(q) J0(q rho) dq at each
    radius rho, midpoint rule over the samples of f: sample k sits at
    q_k = (k + 1/2) r_max / n, which keeps the plain Riemann sum
    second-order accurate and never touches q = 0.

    Accepts a scalar (returns a float) or an array of radii (returns an
    array of its shape), one J0 evaluation over the samples per radius; an
    array gives bit for bit the scalar calls' values.  The caller owns the
    truncation at r_max: f should have decayed there, or its tail must
    cancel oscillatorily.  Raises NonPositiveParameter unless r_max is
    positive and finite, GridTooCoarse for fewer than 16 samples or samples
    that are not 1-D, NegativeArgument for a negative or non-finite radius,
    and GridTooCoarse when one period of J0(q rho) at the largest radius
    covers fewer than 4 samples.
    """
    if not 0.0 < r_max < math.inf:
        raise NonPositiveParameter("r_max", f"need a positive finite value, got {r_max!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 16:
        raise GridTooCoarse("hankel0 needs at least 16 one-dimensional samples")
    arr = np.asarray(rho, dtype=float)
    flat = arr.ravel()
    bad = ~((flat >= 0.0) & (flat < math.inf))
    if bad.any():
        raise NegativeArgument(f"hankel0 needs finite rho >= 0, got {float(flat[np.argmax(bad)])!r}")
    h = r_max / values.size
    top = float(flat.max()) if flat.size else 0.0
    if top > 0.0 and 2.0 * math.pi / top < 4.0 * h:
        needed = math.ceil(4.0 * r_max * top / (2.0 * math.pi))
        raise GridTooCoarse(
            f"J0(q rho) at rho={top:g} oscillates faster than 4 samples per period",
            suggested_count=needed,
        )
    q = (np.arange(values.size) + 0.5) * h
    qf = q * values
    out = np.array([np.sum(qf * bessel_j0(q * r)) for r in flat.tolist()]) * h / (2.0 * math.pi)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection.  Requires f(lo) f(hi) < 0; returns the bracket midpoint
    once the bracket is narrower than tol.  Fully deterministic."""
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChange(f"f({lo:g})={flo:g} and f({hi:g})={fhi:g} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Moments(NamedTuple):
    mean1: float
    mean2: float
    var1: float
    var2: float
    covar: float


def grid_moments(values, centers1, centers2) -> Moments:
    """First and second central moments of a density sampled at the cell
    centres (centers1[i], centers2[j]) of values[i, j], midpoint sums.

    Works from the row sums, the column sums and one weighted contraction
    of the grid, so it makes no grid-sized temporaries; numpy's own
    reductions (no BLAS) keep the result independent of the thread count.
    Normalizes internally, so the input need not integrate to exactly one.
    Raises ZeroMass when there is nothing to normalize.
    """
    w = np.asarray(values, dtype=float)
    x = np.asarray(centers1, dtype=float)
    y = np.asarray(centers2, dtype=float)
    rows = w.sum(axis=1)
    mass = float(rows.sum())
    if mass <= 0.0:
        raise ZeroMass("grid mass must be positive")
    cols = w.sum(axis=0)
    mean1 = float(np.sum(rows * x)) / mass
    mean2 = float(np.sum(cols * y)) / mass
    dx = x - mean1
    dy = y - mean2
    var1 = float(np.sum(rows * dx * dx)) / mass
    var2 = float(np.sum(cols * dy * dy)) / mass
    covar = float(np.sum(dx * np.einsum("ij,j->i", w, dy))) / mass
    return Moments(mean1, mean2, var1, var2, covar)


_g9 = "{:.9g}".format  # the 9-significant-digit text of every CSV export


def _format_distinct(values, fmt: Callable[[float], str]) -> list:
    """fmt(v) for every v of a float array, nested in lists as
    values.tolist() would nest the floats, with fmt called once per
    distinct bit pattern.

    The values are grouped by their 64-bit patterns rather than compared as
    floats, so 0.0 and -0.0 (which format differently) stay apart.  Grids
    sampled from mirror-symmetric factors repeat most of their values, so
    this is what keeps text exports from formatting the same float again.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    strings = np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)
    return strings[inverse].reshape(arr.shape).tolist()
