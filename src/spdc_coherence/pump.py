"""Gaussian Schell-model pump: mutual coherence function, the diagonal
(plus-coordinate) factors of the joint distributions, their variances,
and the lab/rotated coordinate change.

The mutual coherence function is

    Gamma(r1, r2) = exp[ -(r1^2 + r2^2)/(4 w^2)
                         - (r1 - r2)^2 / (2 ell_c^2)
                         - i (r1^2 - r2^2) / (2 Rq) ]

with Rq = R / k_p carrying the curvature phase (sign preserved, so
converging and diverging fronts stay distinct).  Normalization is chosen
as Gamma(0, 0) = 1; the densities below are normalized separately to unit
integral, so that choice is observable only through Gamma itself.

Infinite ell_c or R remove their term exactly: IEEE division by the inf
sentinel yields an exact zero exponent contribution, no special-casing
needed.  Pump parameters are taken as constant through the crystal (no
propagation of w, ell_c, R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _radius, gaussian_radial
from .params import PumpParams

__all__ = [
    "mutual_coherence",
    "p_gamma_position",
    "p_gamma_momentum",
    "variance_rho_plus",
    "variance_q_plus",
    "RotatedPoint",
    "rotate_to_pm",
    "rotate_from_pm",
]

_SQRT2 = math.sqrt(2.0)


def _sq(v: np.ndarray) -> float:
    return float(np.dot(v, v))


def mutual_coherence(p: PumpParams, rho1, rho2) -> complex:
    """Two-point correlation Gamma(rho1, rho2) of the Schell-model pump.

    rho1, rho2: transverse 2-vectors (um).  Hermitian in its arguments and
    bounded by Cauchy-Schwarz; the diagonal is the (real) intensity profile
    exp[-rho^2/(2 w^2)].
    """
    r1 = np.asarray(rho1, dtype=float)
    r2 = np.asarray(rho2, dtype=float)
    s1 = _sq(r1)
    s2 = _sq(r2)
    curvature_sq = p.R / p.k_p  # signed; inf when the phase term is absent
    amplitude = -(s1 + s2) / (4.0 * p.w**2) - _sq(r1 - r2) / (2.0 * p.ell_c**2)
    phase = -(s1 - s2) / (2.0 * curvature_sq)
    return complex(math.exp(amplitude) * math.cos(phase), math.exp(amplitude) * math.sin(phase))


def variance_rho_plus(p: PumpParams) -> float:
    """Per-axis position variance of the diagonal factor: 2 w^2 (um^2).
    Independent of ell_c and R."""
    return 2.0 * p.w**2


def variance_q_plus(p: PumpParams) -> float:
    """Per-axis momentum variance of the diagonal factor ((rad/um)^2):

        (1 + 4 (w^4/Rq^4 + w^2/ell_c^2)) / (8 w^2),   Rq^2 = R/k_p.

    Coherent flat-phase limit 1/(8 w^2); incoherent limit 1/(2 ell_c^2).
    Written so the inf sentinels drop their terms exactly.
    """
    w2 = p.w**2
    curvature_sq = p.R / p.k_p
    curvature_term = (w2 / curvature_sq) ** 2  # even in R, sign drops out
    coherence_term = w2 / p.ell_c**2
    return (1.0 + 4.0 * (curvature_term + coherence_term)) / (8.0 * w2)


def p_gamma_position(p: PumpParams, rho_plus) -> float:
    """Normalized diagonal position density, a 2D Gaussian with per-axis
    variance 2 w^2.  Peak value 1/(4 pi w^2); no ell_c or R dependence."""
    return float(gaussian_radial(variance_rho_plus(p)).pdf(_radius(rho_plus)))


def p_gamma_momentum(p: PumpParams, q_plus) -> float:
    """Normalized diagonal momentum density, a 2D Gaussian with per-axis
    variance ``variance_q_plus(p)``."""
    return float(gaussian_radial(variance_q_plus(p)).pdf(_radius(q_plus)))


@dataclass(frozen=True)
class RotatedPoint:
    """Diagonal/anti-diagonal coordinates of a signal/idler pair of
    2-vectors: plus = (v_s + v_i)/sqrt2, minus = (v_s - v_i)/sqrt2."""

    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plus", np.asarray(self.plus, dtype=float))
        object.__setattr__(self, "minus", np.asarray(self.minus, dtype=float))


def rotate_to_pm(v_s, v_i) -> RotatedPoint:
    """Lab to rotated coordinates.  The map is orthogonal, so it preserves
    areas and round-trips to machine precision."""
    a = np.asarray(v_s, dtype=float)
    b = np.asarray(v_i, dtype=float)
    return RotatedPoint(plus=(a + b) / _SQRT2, minus=(a - b) / _SQRT2)


def rotate_from_pm(r: RotatedPoint) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``rotate_to_pm``."""
    return (r.plus + r.minus) / _SQRT2, (r.plus - r.minus) / _SQRT2
