"""Gaussian Schell-model pump: the variances of the diagonal
(plus-coordinate) factors of the joint distributions.

The pump is the Schell model with mutual coherence function

    Gamma(r1, r2) = exp[ -(r1^2 + r2^2)/(4 w^2)
                         - (r1 - r2)^2 / (2 ell_c^2)
                         - i (r1^2 - r2^2) / (2 Rq) ]

with Rq = R / k_p carrying the curvature phase (sign preserved, so
converging and diverging fronts stay distinct).  The diagonal factor of
each joint density is Gaussian, so this module holds only its two
closed-form variances; ``joint`` turns them into densities through
``numerics.gaussian_radial``.  Gamma itself is evaluated in
``tests/oracles.py``, where both variances are derived from it by
quadrature.

Infinite ell_c or R remove their term exactly: IEEE division by the inf
sentinel yields an exact zero exponent contribution, no special-casing
needed.  Pump parameters are taken as constant through the crystal (no
propagation of w, ell_c, R).
"""

from __future__ import annotations

from .params import PumpParams

__all__ = [
    "variance_rho_plus",
    "variance_q_plus",
]


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
