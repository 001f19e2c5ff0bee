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

In exact arithmetic the regions never touch, for any alpha > 0: the
second bound gives y^2 < 4 / (alpha + 1/alpha), which is below the 4 / alpha
of the first.  The sweep asserts this, to catch rounding.

sweep_phase_diagram returns a PhaseDiagram: the x and y cell centres and
the two verdict masks as read-only columns, one array pass for the whole
grid.  It iterates as PhaseDiagramCell, each equal to classify_xy at its
centre, and sweep_to_csv writes it from the columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveParameter
from .numerics import _g9
from .params import CrystalParams, PumpParams, _require_same_k_p
from .phasematch import variance_q_minus, variance_rho_minus
from .pump import variance_q_plus, variance_rho_plus

__all__ = [
    "CORRELATED",
    "ANTI",
    "NONE",
    "WitnessReport",
    "PhaseDiagramCell",
    "PhaseDiagram",
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
_LABELS = {(True, False): _TYPE1, (False, True): _TYPE2, (False, False): _NEITHER}


def product_pm(p: PumpParams, c: CrystalParams) -> float:
    """Diagonal position width times anti-diagonal momentum width:
    sqrt(2 w^2 * k_p / (2 alpha L)) = w sqrt(k_p / (alpha L)).

    Exactly independent of ell_c and R; entanglement witnessed when < 1/2.
    Raises ParameterMismatch when pump and crystal disagree on k_p.
    """
    _require_same_k_p(p, c)
    return math.sqrt(variance_rho_plus(p) * variance_q_minus(c))


def product_mp(p: PumpParams, c: CrystalParams) -> float:
    """Anti-diagonal position width times diagonal momentum width.  Grows
    with 1/ell_c and with wavefront curvature; entanglement witnessed
    when < 1/2.  Raises ParameterMismatch when pump and crystal disagree
    on k_p."""
    _require_same_k_p(p, c)
    return math.sqrt(variance_rho_minus(c) * variance_q_plus(p))


def _sense(var_plus: float, var_minus: float) -> str:
    if var_minus < var_plus:
        return CORRELATED
    if var_plus < var_minus:
        return ANTI
    return NONE


class WitnessReport(NamedTuple):
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
    compare the Gaussian-model rotated variances in each space.  Raises
    ParameterMismatch when pump and crystal disagree on k_p."""
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


class PhaseDiagramCell(NamedTuple):
    """One cell of the (x, y) sweep, evaluated at the cell centre."""

    x: float
    y: float
    type1: bool
    type2: bool
    classification: str


def _verdicts(x, y, alpha: float):
    """Both witness verdicts at the points (x, y), elementwise over numpy
    values broadcast together, with the same floating-point operations as
    the scalar formulas.  alpha must already be checked: positive, finite."""
    with np.errstate(over="ignore"):  # 4 x^2 -> inf just means no type2
        type1 = y > 2.0 / math.sqrt(alpha)
        type2 = y * y < 4.0 / ((alpha + 1.0 / alpha) * (1.0 + 4.0 * x * x))
    type1, type2 = np.broadcast_arrays(type1, type2)
    both = type1 & type2
    if both.any():  # unreachable in exact arithmetic; guards against rounding
        x0, y0 = (np.broadcast_to(v, both.shape)[both][0] for v in (x, y))
        raise AssertionError(f"witness regions overlap at x={x0}, y={y0}, alpha={alpha}")
    return type1, type2


def classify_xy(x: float, y: float, alpha: float) -> PhaseDiagramCell:
    """Phase-diagram verdict at a single dimensionless point (flat
    wavefronts assumed).  Raises NonPositiveParameter unless x >= 0 and
    y, alpha > 0 are all finite."""
    # written so that NaN fails it
    if not (0.0 <= x < math.inf and 0.0 < y < math.inf and 0.0 < alpha < math.inf):
        raise NonPositiveParameter("x, y, alpha", f"need finite x >= 0, y > 0, alpha > 0; got {x!r}, {y!r}, {alpha!r}")
    type1, type2 = (bool(v) for v in _verdicts(np.float64(x), np.float64(y), alpha))
    return PhaseDiagramCell(x=x, y=y, type1=type1, type2=type2, classification=_LABELS[type1, type2])


# len() and iteration have one reader left, perfbench's survey check
@dataclass(frozen=True, eq=False)
class PhaseDiagram:
    """An nx-by-ny phase diagram held as columns: the cell centres x (nx,)
    and y (ny,), and the verdict masks type1 and type2 (nx, ny).  Every
    column is a read-only private copy, and no cell may be in both
    witness regions.  Its length is the cell count, and it iterates as
    PhaseDiagramCell, row-major in x then y."""

    x: np.ndarray
    y: np.ndarray
    type1: np.ndarray
    type2: np.ndarray

    def __post_init__(self):
        for name, dtype in (("x", np.float64), ("y", np.float64), ("type1", bool), ("type2", bool)):
            col = np.array(getattr(self, name), dtype=dtype)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        shape = (self.x.size, self.y.size)
        if self.x.ndim != 1 or self.y.ndim != 1 or self.type1.shape != shape or self.type2.shape != shape:
            raise ValueError(f"need 1D x, y and {shape} masks; got {self.type1.shape} and {self.type2.shape}")
        if (self.type1 & self.type2).any():
            raise ValueError("a cell cannot hold both witnesses: the regions are disjoint")

    def __len__(self) -> int:
        return self.type1.size

    def __iter__(self):
        return (
            PhaseDiagramCell(x, y, t1, t2, _LABELS[t1, t2])
            for (x, y), t1, t2 in zip(
                product(self.x.tolist(), self.y.tolist()), self.type1.ravel().tolist(), self.type2.ravel().tolist()
            )
        )


def sweep_phase_diagram(
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    alpha: float,
) -> PhaseDiagram:
    """Classify an nx-by-ny grid of cell centres, row-major in x then y.
    Raises NonPositiveParameter for a range that is not finite with positive
    width, a count that is not an integer of at least one, or a cell that
    classify_xy rejects."""
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    if not (-math.inf < x_lo < x_hi < math.inf and -math.inf < y_lo < y_hi < math.inf):
        raise NonPositiveParameter("range", f"need finite ranges of positive width; got {x_range!r}, {y_range!r}")
    try:
        nx, ny = operator.index(nx), operator.index(ny)
    except TypeError:
        raise NonPositiveParameter("count", f"need integer cell counts, got {nx!r} x {ny!r}") from None
    if nx < 1 or ny < 1:
        raise NonPositiveParameter("count", f"need at least one cell per axis, got {nx!r} x {ny!r}")
    dx = (x_hi - x_lo) / nx
    dy = (y_hi - y_lo) / ny
    # centres ascend from this corner and stay below the finite upper ends,
    # so every cell is in classify_xy's domain when the corner is
    classify_xy(x_lo + 0.5 * dx, y_lo + 0.5 * dy, alpha)
    xs = x_lo + (np.arange(nx) + 0.5) * dx
    ys = y_lo + (np.arange(ny) + 0.5) * dy
    return PhaseDiagram(xs, ys, *_verdicts(xs[:, None], ys[None, :], alpha))


def sweep_to_csv(diagram: PhaseDiagram) -> str:
    """One row per cell, row-major in x then y, coordinates to 9
    significant digits.  Each x and y centre is formatted once, and a row
    is its x text joined to one of three "y,type1,type2,classification"
    tails made per y, picked by the cell's verdicts."""
    lines = ["x,y,type1,type2,classification"]
    if diagram.type1.size:
        ys = [_g9(y) for y in diagram.y.tolist()]
        # tails[type1 + 2 type2, j]; the regions are disjoint, so no cell has code 3
        tails = np.array([
            [f"{y},{int(t1)},{int(t2)},{_LABELS[t1, t2]}" for y in ys]
            for t1, t2 in ((False, False), (True, False), (False, True))
        ], dtype=object)
        rows = tails[diagram.type1 + 2 * diagram.type2, np.arange(len(ys))].tolist()
        lines += [x + "," + ("\n" + x + ",").join(row) for x, row in zip(map(_g9, diagram.x.tolist()), rows)]
    lines.append("")  # the trailing newline, without a second copy of the text
    return "\n".join(lines)
