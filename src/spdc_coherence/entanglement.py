"""Continuous-variable entanglement witnesses from rotated-coordinate
width products, and the two-parameter phase diagram they generate.

Two dimensionless products decide everything.  product_pm pairs the
diagonal position width with the anti-diagonal momentum width; it knows
nothing about coherence or wavefront curvature, which is the central
robustness statement of this whole construction.  product_mp pairs the
other two widths and degrades as the pump loses coherence.  Either
product falling strictly below 1/2 witnesses entanglement; a separable
state obeys both bounds.

The phase diagram lives on x = w / ell_c (inverse coherence, 0 for a
coherent pump) and y = sqrt(L / (k_p w^2)) (crystal length against the
pump Rayleigh scale), with flat wavefronts.  In those variables, with
the Gaussian phase-matching width alpha:

    product_pm < 1/2  iff  y > 2 / sqrt(alpha)
    product_mp < 1/2  iff  y^2 < 4 / ((alpha + 1/alpha)(1 + 4 x^2))

The regions never touch for alpha < 1 (the second bound stays strictly
below the first); the sweep asserts this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveParameter
from .numerics import _format_distinct
from .params import CrystalParams, PumpParams, validate_crystal, validate_pump
from .phasematch import variance_q_minus, variance_rho_minus
from .pump import variance_q_plus, variance_rho_plus

__all__ = [
    "CORRELATED",
    "ANTI",
    "NONE",
    "WitnessReport",
    "PhaseDiagramCell",
    "product_pm",
    "product_mp",
    "classify",
    "classify_xy",
    "sweep_phase_diagram",
    "sweep_to_csv",
]

# correlation senses of a rotated width pair
CORRELATED = "correlated"  # anti-diagonal narrower
ANTI = "anti"              # diagonal narrower
NONE = "none"              # equal widths

# phase-diagram cell labels
_TYPE1 = "type1_antipos_corrmom"
_TYPE2 = "type2_pos_antimom"
_NEITHER = "none"


def product_pm(p: PumpParams, c: CrystalParams) -> float:
    """Diagonal position width times anti-diagonal momentum width:
    sqrt(2 w^2 * k_p / (2 alpha L)) = w sqrt(k_p / (alpha L)).

    Exactly independent of ell_c and R; entanglement witnessed when < 1/2.
    """
    return math.sqrt(variance_rho_plus(p) * variance_q_minus(c))


def product_mp(p: PumpParams, c: CrystalParams) -> float:
    """Anti-diagonal position width times diagonal momentum width.  Grows
    with 1/ell_c and with wavefront curvature; entanglement witnessed
    when < 1/2."""
    return math.sqrt(variance_rho_minus(c) * variance_q_plus(p))


def _sense(var_plus: float, var_minus: float) -> str:
    if var_minus < var_plus:
        return CORRELATED
    if var_plus < var_minus:
        return ANTI
    return NONE


@dataclass(frozen=True)
class WitnessReport:
    """Both width products, their strict witness verdicts, and the
    correlation sense of each space's joint distribution."""

    product_pm: float
    product_mp: float
    type1: bool
    type2: bool
    correlation_position: str
    correlation_momentum: str


def classify(p: PumpParams, c: CrystalParams) -> WitnessReport:
    """Evaluate both witnesses for a parameter set.  Verdicts are strict
    (a product exactly at 1/2 witnesses nothing).  Correlation senses
    compare the Gaussian-model rotated variances in each space."""
    p = validate_pump(p)
    c = validate_crystal(c)
    pm_val = product_pm(p, c)
    mp_val = product_mp(p, c)
    return WitnessReport(
        product_pm=pm_val,
        product_mp=mp_val,
        type1=pm_val < 0.5,
        type2=mp_val < 0.5,
        correlation_position=_sense(variance_rho_plus(p), variance_rho_minus(c)),
        correlation_momentum=_sense(variance_q_plus(p), variance_q_minus(c)),
    )


@dataclass(frozen=True)
class PhaseDiagramCell:
    """One cell of the (x, y) sweep, evaluated at the cell centre."""

    x: float
    y: float
    type1: bool
    type2: bool
    classification: str


def classify_xy(x: float, y: float, alpha: float) -> PhaseDiagramCell:
    """Phase-diagram verdict at a single dimensionless point (flat
    wavefronts assumed).  Raises NonPositiveParameter unless x >= 0 and
    y, alpha > 0 are all finite."""
    # written so that NaN fails it
    if not (0.0 <= x < math.inf and 0.0 < y < math.inf and 0.0 < alpha < math.inf):
        raise NonPositiveParameter("x, y, alpha", f"need finite x >= 0, y > 0, alpha > 0; got {x!r}, {y!r}, {alpha!r}")
    type1 = y > 2.0 / math.sqrt(alpha)
    type2 = y * y < 4.0 / ((alpha + 1.0 / alpha) * (1.0 + 4.0 * x * x))
    if type1 and type2:  # unreachable for alpha < 1; guards the algebra
        raise AssertionError(f"witness regions overlap at x={x}, y={y}, alpha={alpha}")
    if type1:
        label = _TYPE1
    elif type2:
        label = _TYPE2
    else:
        label = _NEITHER
    return PhaseDiagramCell(x=x, y=y, type1=type1, type2=type2, classification=label)


def sweep_phase_diagram(
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    alpha: float,
) -> list[PhaseDiagramCell]:
    """Classify an nx-by-ny grid of cell centres, row-major in x then y.
    Raises NonPositiveParameter for a range that is not finite with positive
    width, a count below one, or a cell that classify_xy rejects."""
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    if not (-math.inf < x_lo < x_hi < math.inf and -math.inf < y_lo < y_hi < math.inf):
        raise NonPositiveParameter("range", f"need finite ranges of positive width; got {x_range!r}, {y_range!r}")
    if nx < 1 or ny < 1:
        raise NonPositiveParameter("count", f"need at least one cell per axis, got {nx!r} x {ny!r}")
    dx = (x_hi - x_lo) / nx
    dy = (y_hi - y_lo) / ny
    cells = []
    for i in range(nx):
        x = x_lo + (i + 0.5) * dx
        for j in range(ny):
            y = y_lo + (j + 0.5) * dy
            cells.append(classify_xy(x, y, alpha))
    return cells


def sweep_to_csv(cells: list[PhaseDiagramCell]) -> str:
    """One row per cell, coordinates to 9 significant digits.  Each distinct
    x and y is formatted once (a sweep has nx + ny of them against nx * ny
    rows), so the cost scales with the number of distinct coordinates plus
    a cheap per-row join."""
    g9 = "{:.9g}".format
    xs = _format_distinct([cell.x for cell in cells], g9)
    ys = _format_distinct([cell.y for cell in cells], g9)
    lines = ["x,y,type1,type2,classification"]
    lines += [
        f"{x},{y},{int(cell.type1)},{int(cell.type2)},{cell.classification}"
        for x, y, cell in zip(xs, ys, cells)
    ]
    del xs, ys  # the joined text is the peak; keep the columns out of it
    lines.append("")  # the trailing newline, without a second copy of the text
    return "\n".join(lines)
