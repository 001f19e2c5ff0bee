"""Self-contained numerical kernels: special functions, a radial (order-0
Hankel) transform, bisection, and discrete moment extraction.

Nothing in here knows about pumps or crystals.  The physics modules quote
closed-form results; this layer is the independent numerical route those
results are checked against, so it deliberately avoids depending on them
(and on external special-function libraries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridTooCoarse, NegativeArgument, NonPositiveParameter, NoSignChange, ZeroMass

__all__ = [
    "sinc",
    "sine_integral",
    "bessel_j0",
    "RadialGrid",
    "hankel0",
    "find_root",
    "Grid2D",
    "Moments",
    "grid_moments",
]

_SINC_SERIES_CUTOFF = 1e-4
_SI_SPLIT = 4.0


def sinc(x, series_cutoff: float = _SINC_SERIES_CUTOFF):
    """sin(x)/x with the removable singularity filled by its Taylor series.

    Unnormalized convention (no pi).  Accepts scalars or arrays.  Below
    ``series_cutoff`` the quartic series keeps the error under 1e-14.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < series_cutoff
    safe = np.where(small, 1.0, x)
    x2 = x * x
    out = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


def _si_series(x: np.ndarray) -> np.ndarray:
    # sum over k of (-1)^k x^(2k+1) / ((2k+1)(2k+1)!), each element
    # stopping at the first term below 1e-18; finished elements leave the
    # working set so the rest see exactly the scalar recursion
    out = np.empty_like(x)
    idx = np.arange(x.size)
    xx = x * x
    a = total = x
    for k in range(1, 64):
        a = a * (xx / ((2 * k) * (2 * k + 1)))
        t = a / (2 * k + 1)
        total = total - t if (k & 1) else total + t
        done = a < 1e-18
        if np.count_nonzero(done):
            out[idx[done]] = total[done]
            keep = ~done
            idx, xx, a, total = idx[keep], xx[keep], a[keep], total[keep]
            if not idx.size:
                break
    out[idx] = total
    return out


# The continued fraction below runs CPython's complex arithmetic
# (_Py_c_prod, _Py_c_quot) on (real, imag) array pairs, operation for
# operation, so each element gets the bits the scalar recursion gave;
# numpy's complex division rounds differently in the last place.  Terms
# with a zero imaginary part are dropped from the formulas: they only
# ever change the sign of an exact zero.


def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _real_over(a, br, bi):
    # a / (br + i bi) for real a, by Smith's rule as _Py_c_quot does it
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    a_ratio = a * ratio
    return np.where(by_real, a, a_ratio) / denom, -np.where(by_real, a_ratio, a) / denom


def _si_large(x: np.ndarray) -> np.ndarray:
    # Auxiliary-function route for the asymptotic regime.  The divergent
    # asymptotic series cannot reach 1e-10 near the split point, so the
    # auxiliary functions are evaluated through the continued fraction of
    # the complex exponential integral E1(ix) (modified Lentz recursion
    # with b_i = 2i - 1 + ix, a_i = -(i-1)^2); that converges to machine
    # precision for x > 4.  Each element stops at its own convergence and
    # leaves the working set.
    n = x.size
    h_out = np.empty((2, n))
    idx = np.arange(n)
    bi = x
    cr = np.full(n, 1e308)
    ci = np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        dr, di = _real_over(1.0, 1.0, bi)
        hr, hi = dr, di
        for i in range(2, 500):
            a = float(-((i - 1) ** 2))
            br = float(2 * i - 1)
            dr, di = _real_over(1.0, a * dr + br, a * di + bi)
            qr, qi = _real_over(a, cr, ci)
            cr, ci = br + qr, bi + qi
            delta_r, delta_i = _cmul(cr, ci, dr, di)
            hr, hi = _cmul(hr, hi, delta_r, delta_i)
            done = np.abs(delta_r - 1.0) + np.abs(delta_i) < 1e-16
            if np.count_nonzero(done):
                h_out[0, idx[done]] = hr[done]
                h_out[1, idx[done]] = hi[done]
                keep = ~done
                idx, bi, cr, ci, dr, di, hr, hi = (
                    v[keep] for v in (idx, bi, cr, ci, dr, di, hr, hi)
                )
                if not idx.size:
                    break
    h_out[0, idx] = hr
    h_out[1, idx] = hi
    # libm cos/sin per element, as the scalar route called them: numpy's
    # own may take a SIMD path that differs in the last place
    cos = np.array([math.cos(v) for v in x.tolist()])
    msin = -np.array([math.sin(v) for v in x.tolist()])
    return math.pi / 2 + (cos * h_out[1] + msin * h_out[0])


def sine_integral(x):
    """Si(x), the integral of sin(t)/t from 0 to x, for x >= 0.

    Power series up to x = 4, auxiliary functions above; absolute error
    below 1e-10 on the whole domain (in practice ~1e-15).  Accepts scalars
    or arrays; a scalar or 0-d input returns a float.  Negative arguments
    raise NegativeArgument: all callers here pass quadratic phases, so the
    odd extension is intentionally not provided.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    negative = flat < 0.0
    if negative.any():
        bad = float(flat[np.argmax(negative)])
        raise NegativeArgument(f"sine_integral needs x >= 0, got {bad!r}")
    out = np.empty_like(flat)
    small = flat <= _SI_SPLIT
    if small.any():
        out[small] = _si_series(flat[small])
    if not small.all():
        out[~small] = _si_large(flat[~small])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# Hankel-symbol coefficients c_m = prod_{j<=m} (2j-1)^2 / (8^m m!), the
# numerators of the large-argument cosine/sine expansions of J0.
def _hankel_coeffs(n: int) -> list[float]:
    c = [1.0]
    for m in range(1, n):
        c.append(c[-1] * (2 * m - 1) ** 2 / (8.0 * m))
    return c


_J0_C = _hankel_coeffs(14)
_J0_SPLIT = 12.0


def bessel_j0(x):
    """Bessel function J0 by power series (|x| <= 12) and the large-argument
    cosine/sine expansion beyond.  Absolute error < 1e-8 everywhere (measured
    ~5e-12).  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    ax = np.abs(x)
    out = np.empty_like(ax)

    small = ax <= _J0_SPLIT
    if np.any(small):
        z = ax[small] ** 2 / 4.0
        term = np.ones_like(z)
        acc = np.ones_like(z)
        for k in range(1, 42):
            term *= -z / (k * k)
            acc += term
        out[small] = acc
    if not np.all(small):
        xb = ax[~small]
        c = _J0_C
        ix2 = 1.0 / (xb * xb)
        p = 1.0 + ix2 * (-c[2] + ix2 * (c[4] + ix2 * (-c[6] + ix2 * (c[8] + ix2 * (-c[10] + ix2 * c[12])))))
        q = (1.0 / xb) * (
            -c[1] + ix2 * (c[3] + ix2 * (-c[5] + ix2 * (c[7] + ix2 * (-c[9] + ix2 * (c[11] - ix2 * c[13])))))
        )
        chi = xb - math.pi / 4.0
        out[~small] = np.sqrt(2.0 / (math.pi * xb)) * (np.cos(chi) * p - np.sin(chi) * q)
    return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform midpoint samples of a radial function on (0, r_max].

    Sample k sits at r_k = (k + 1/2) r_max / n; the midpoint layout keeps
    plain Riemann sums second-order accurate and never touches r = 0.
    """

    r_max: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not self.r_max > 0.0:
            raise NonPositiveParameter("r_max", f"got {self.r_max!r}")
        if vals.ndim != 1 or vals.size < 16:
            raise GridTooCoarse("radial grid needs at least 16 one-dimensional samples")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return self.r_max / self.n

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.step

    @classmethod
    def from_function(cls, f: Callable[[np.ndarray], np.ndarray], r_max: float, n: int) -> "RadialGrid":
        if not r_max > 0.0:
            raise NonPositiveParameter("r_max", f"got {r_max!r}")
        nodes = (np.arange(n) + 0.5) * (r_max / n)
        return cls(r_max, np.asarray(f(nodes), dtype=float))


def hankel0(f: RadialGrid, rho: float) -> float:
    """Order-0 Hankel transform sample (1/2pi) * int q f(q) J0(q rho) dq,
    midpoint rule over the grid.

    The caller owns the truncation at r_max: f should have decayed there,
    or its tail must cancel oscillatorily.  Raises GridTooCoarse when the
    J0 oscillation period at r_max covers fewer than 4 samples.
    """
    if rho < 0.0:
        raise NegativeArgument(f"hankel0 needs rho >= 0, got {rho!r}")
    h = f.step
    if rho > 0.0 and 2.0 * math.pi / rho < 4.0 * h:
        needed = math.ceil(4.0 * f.r_max * rho / (2.0 * math.pi))
        raise GridTooCoarse(
            f"J0(q rho) at rho={rho:g} oscillates faster than 4 samples per period",
            suggested_count=needed,
        )
    q = f.nodes
    return float(np.sum(q * f.values * bessel_j0(q * rho)) * h / (2.0 * math.pi))


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


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Cell-centred samples of a non-negative function on a rectangle.

    ``axis1``/``axis2`` are (min, max, count) edge definitions; values has
    shape (count1, count2), row-major, sampled at cell centres.
    """

    axis1: tuple[float, float, int]
    axis2: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        for ax in (self.axis1, self.axis2):
            lo, hi, count = ax
            if count < 8:
                raise GridTooCoarse(f"axis needs at least 8 cells, got {count}")
            if not hi > lo:
                raise ValueError(f"axis range [{lo!r}, {hi!r}] is empty")
        if vals.shape != (self.axis1[2], self.axis2[2]):
            raise ValueError(f"values shape {vals.shape} does not match axes")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("grid values must be finite and non-negative")

    @staticmethod
    def _centers(ax: tuple[float, float, int]) -> np.ndarray:
        lo, hi, count = ax
        step = (hi - lo) / count
        return lo + (np.arange(count) + 0.5) * step

    @property
    def centers1(self) -> np.ndarray:
        return self._centers(self.axis1)

    @property
    def centers2(self) -> np.ndarray:
        return self._centers(self.axis2)

    @property
    def cell_area(self) -> float:
        return ((self.axis1[1] - self.axis1[0]) / self.axis1[2]) * (
            (self.axis2[1] - self.axis2[0]) / self.axis2[2]
        )


class Moments(NamedTuple):
    mean1: float
    mean2: float
    var1: float
    var2: float
    covar: float


def grid_moments(g: Grid2D) -> Moments:
    """First and second central moments of a sampled density, midpoint sums.

    Normalizes internally, so the input need not integrate to exactly one.
    Raises ZeroMass when there is nothing to normalize.
    """
    w = g.values
    mass = float(w.sum())
    if mass <= 0.0:
        raise ZeroMass("grid mass must be positive")
    p = w / mass
    x = g.centers1[:, None]
    y = g.centers2[None, :]
    mean1 = float((p * x).sum())
    mean2 = float((p * y).sum())
    dx = x - mean1
    dy = y - mean2
    var1 = float((p * dx * dx).sum())
    var2 = float((p * dy * dy).sum())
    covar = float((p * dx * dy).sum())
    return Moments(mean1, mean2, var1, var2, covar)
