"""Joint two-photon distributions across one transverse component per
photon, on lab or rotated axes.

Both joint densities factorize in the rotated frame: the diagonal
(plus) factor comes from the pump and is always Gaussian, the
anti-diagonal (minus) factor comes from phase matching and is Gaussian
only under the Gaussian model.  Grids therefore hold products of two 1D
marginals; in rotated coordinates the factorization is exact by
construction (outer product), in lab coordinates the axes mix and the
density develops the familiar tilted-ellipse correlations.

Each factor is a _Factor (marginal, 1/e half-width, window): _gaussian
passes a closed-form variance's marginal through, _factor tabulates a
heavy-tailed density's exact marginal once at its RadialDensity.offsets
(phasematch sets them), 4097 uniform ones in momentum and its own 2048
table radii plus 0 in position.
Only the minus factor can need a table, and it does not depend on the
pump: a non-Gaussian one is cached on exactly what it reads
(phasematch._minus_key), so a sweep over the pump or alpha, or over z0
in momentum space, builds it once.  Gaussian factors are never cached.

Grid values are raw samples of the normalized joint density at cell
centres; nothing is renormalized after sampling, so cell sums are an
honest accuracy diagnostic.  Heavy-tailed minus factors (exact sinc and
profile models) put a percent-level mass fraction outside any
reasonable default window; the contract here is stability (mass drift
< 1e-4 under refinement), not unit cell sums.

One sharp edge: a crystal face at z = 0, as in the default exit-face
geometry (z0 = L), gives the position density an integrable
log-squared peak at the origin, |E1(i k_p rho^2 / 4L)|^2 ~
(ln(k_p rho^2 / 4L) + 0.577)^2 as rho -> 0.  At L = 1000 um and
k_p = 10 rad/um the disc rho < 0.5 um holds 1.28% of the mass.  Its 1D
marginal stays finite but has a cusp at the origin (15% lower at
0.5 um) inside a 1/e half-width of 5.18 um, so the coarseness guard
cannot see it; default grids (1.6 um cells there) sample across it and
their cell sums soften accordingly.  Centred crystals (z0 = L/2) have
no such feature.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridTooCoarse, UnknownChoice
from .numerics import RadialDensity, _format_distinct, _g9, gaussian_radial, grid_moments
from .params import CrystalParams, PumpParams, _closed_form, _params_doc, _require_same_k_p
from .phasematch import PhaseMatchModel, _minus_key, _momentum_density, _position_density
from .phasematch import variance_q_minus, variance_rho_minus
from .pump import variance_q_plus, variance_rho_plus

__all__ = [
    "Axis",
    "JointGrid",
    "default_axes",
    "evaluate_grid",
    "widths_from_grid",
]

_SQRT2 = math.sqrt(2.0)

DEFAULT_COUNT = 256
MAX_DEFAULT_COUNT = 2048  # a 2048^2 lab export already takes about 6 s and 270 MB


@dataclass(frozen=True)
class Axis:
    """Cell-centred axis: count cells (an integer) spanning [lo, hi], with hi - lo positive and finite."""

    lo: float
    hi: float
    count: int
    label: str = ""

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"axis range [{self.lo!r}, {self.hi!r}] has non-positive width")
        if not self.hi - self.lo < math.inf:  # an infinite end, or a span that overflows
            raise ValueError(f"axis range [{self.lo!r}, {self.hi!r}] has infinite width")
        object.__setattr__(self, "count", operator.index(self.count))  # TypeError for 8.5
        if self.count < 8:
            raise GridTooCoarse(f"axis needs at least 8 cells, got {self.count}", suggested_count=8)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.count

    @property
    def centers(self) -> np.ndarray:
        return _ladder(0.5 * (self.lo + self.hi), self.count, self.step)


def _ladder(mid: float, n: int, step: float) -> np.ndarray:
    """mid + (k - (n-1)/2) step for k < n: the offsets are exact, so the
    points mirror exactly about mid and so do the grid values on them."""
    return mid + (np.arange(n) - 0.5 * (n - 1)) * step


class _Factor(NamedTuple):
    """One factor of the joint density.  marginal: its 1D marginal,
    vectorized offset t -> density.  width_half: the marginal's 1/e
    half-width, the resolution scale the grid guard works with.  window:
    the +/- half-range default axes span (5 sigma, or a table's quantile)."""

    marginal: Callable[[np.ndarray], np.ndarray]
    width_half: float
    window: float


def _gaussian(variance: Callable, x) -> _Factor:
    """The closed-form factor of variance(x), x a pump or crystal; raises
    FloatingPointError naming the variance as classify does (params._closed_form)."""
    radial = gaussian_radial(_closed_form(variance, x))
    return _Factor(radial.marginal, _SQRT2 * radial.sigma, 5.0 * radial.sigma)


def _factor(radial: RadialDensity) -> _Factor:
    """A non-Gaussian radial density's factor: its exact marginal tabulated once
    at the density's own offsets, read by linear interpolation, zero beyond."""
    nodes = radial.offsets
    vals = radial.marginal(nodes)
    width_half = _width_from_table(nodes, vals)
    # default window by mass quantile: the sinc-family tails decay like
    # 1/t^2 in captured mass, so a fixed multiple of the 1/e width would
    # strand percents of it outside the grid
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes))))
    idx = int(np.searchsorted(cum, (1.0 - 1e-3) * cum[-1]))
    quantile = float(nodes[min(idx, nodes.size - 1)])

    def marginal(t):
        return np.interp(np.abs(t), nodes, vals, right=0.0)

    return _Factor(marginal, width_half, min(float(nodes[-1]), max(quantile, 5.0 * width_half)))


def _width_from_table(nodes, vals) -> float:
    # full 1/e extent around the tallest feature, halved, its left edge
    # mirrored (-hi) when the peak touches the origin; for a centre-peaked
    # marginal this is the usual 1/e half-width, for an edge-peaked one
    # (poled profiles) it tracks the narrow feature
    peak = int(np.argmax(vals))
    cut = vals[peak] / math.e
    right = np.nonzero(vals[peak:] < cut)[0]
    hi = nodes[peak + right[0]] if right.size else nodes[-1]
    left = np.nonzero(vals[: peak + 1] < cut)[0]
    lo = nodes[left[-1]] if left.size else -hi
    return 0.5 * (hi - lo)


@lru_cache(maxsize=32)
def _minus_marginal(space: str, key: tuple) -> _Factor:
    """A non-Gaussian anti-diagonal factor from what it reads,
    phasematch._minus_key: phase matching only, so one build serves every
    pump and every alpha, and in momentum space every z0."""
    return _factor((_momentum_density if space == "momentum" else _position_density)(*key))


def _factor_pair(p: PumpParams, c: CrystalParams, m: PhaseMatchModel, space: str):
    """(plus factor, minus factor) for the requested space."""
    _require_same_k_p(p, c)
    if space == "momentum":
        plus_var, minus_var = variance_q_plus, variance_q_minus
    elif space == "position":
        plus_var, minus_var = variance_rho_plus, variance_rho_minus
    else:
        raise UnknownChoice(f"unknown space {space!r}, expected 'momentum' or 'position'")
    plus = _gaussian(plus_var, p)
    if m.kind == "gauss":
        return plus, _gaussian(minus_var, c)
    return plus, _minus_marginal(space, _minus_key(c, m, space))


_LABELS = {
    ("momentum", "rotated"): ("q_plus", "q_minus"),
    ("momentum", "lab"): ("q_s_x", "q_i_x"),
    ("position", "rotated"): ("rho_plus", "rho_minus"),
    ("position", "lab"): ("rho_s_x", "rho_i_x"),
}


def default_axes(
    p: PumpParams,
    c: CrystalParams,
    m: PhaseMatchModel,
    space: str,
    coords: str,
    count: int | None = None,
) -> tuple[Axis, Axis]:
    """Symmetric windows per factor.  Rotated: one factor per axis.  Lab:
    each axis must contain the rotated box, so the two half-ranges combine
    as (h_plus + h_minus)/sqrt2.  count None: DEFAULT_COUNT if the
    resolution guard passes there, else the largest count it asks for, up
    to MAX_DEFAULT_COUNT (GridTooCoarse beyond)."""
    _check_coords(coords)
    return _axes(*_factor_pair(p, c, m, space), space, coords, count)


def _axes(plus: _Factor, minus: _Factor, space: str, coords: str, count: int | None) -> tuple[Axis, Axis]:
    la, lb = _LABELS[(space, coords)]
    h1, h2 = (plus.window, minus.window) if coords == "rotated" else ((plus.window + minus.window) / _SQRT2,) * 2
    if count is None:
        trial = (Axis(-h1, h1, DEFAULT_COUNT), Axis(-h2, h2, DEFAULT_COUNT))
        count = max(DEFAULT_COUNT, *map(_need, _widths(plus, minus, coords), trial))
        if count > MAX_DEFAULT_COUNT:
            raise GridTooCoarse(f"default axes would need more than {MAX_DEFAULT_COUNT} cells per axis", count)
    return Axis(-h1, h1, count, la), Axis(-h2, h2, count, lb)


def _check_coords(coords: str):
    if coords not in ("rotated", "lab"):
        raise UnknownChoice(f"unknown coords {coords!r}, expected 'lab' or 'rotated'")


def _widths(plus: _Factor, minus: _Factor, coords: str) -> tuple[float, float]:
    # the full 1/e width each axis resolves; in lab coordinates a
    # rotated-frame feature of width W crosses an axis over W*sqrt2
    if coords == "rotated":
        return 2.0 * plus.width_half, 2.0 * minus.width_half
    return (2.0 * min(plus.width_half, minus.width_half) * _SQRT2,) * 2


def _need(width: float, ax: Axis) -> int:
    # 0 if width spans at least 4 cells of ax, else the fewest cells over
    # its range that it does: the quotient can round down onto one too few
    if not width < 4.0 * ax.step:
        return 0
    n = math.ceil(4.0 * (ax.hi - ax.lo) / width)
    return n + int(width < 4.0 * ((ax.hi - ax.lo) / n))


def _check_resolution(widths: tuple[float, float], ax1: Axis, ax2: Axis):
    for width, ax in zip(widths, (ax1, ax2)):
        if need := _need(width, ax):
            raise GridTooCoarse(f"axis {ax.label or '?'}: factor 1/e width {width:.6g} spans "
                                f"{width / ax.step:.2f} cells, need at least 4", suggested_count=need)


@dataclass(frozen=True)
class JointGrid:
    """Sampled joint density with axis metadata.

    values[i, j] is the density at (axis1 centre i, axis2 centre j).
    Optional params record what produced the grid; injected grids may
    leave them None.  The values are stored read-only: a writeable array
    or a view is copied, a read-only array that owns its data is kept.
    """

    space: str
    coords: str
    axis1: Axis
    axis2: Axis
    values: np.ndarray
    pump: PumpParams | None = None
    crystal: CrystalParams | None = None
    model: PhaseMatchModel | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.axis1.count, self.axis2.count):
            raise ValueError(
                f"values shape {v.shape} does not match axes "
                f"({self.axis1.count}, {self.axis2.count})"
            )
        # NaN propagates through both reductions, so it fails the test too
        if not (v.min() >= 0.0 and v.max() < math.inf):
            raise ValueError("grid values must be finite and non-negative")
        # a read-only array that owns its data is kept: only its holder
        # could make it writeable again, as evaluate_grid never does
        if v.flags.writeable or not v.flags.owndata:
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def cell_area(self) -> float:
        return self.axis1.step * self.axis2.step

    @property
    def mass(self) -> float:
        return float(np.sum(self.values)) * self.cell_area

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Full-precision export; floats survive a load/dump cycle bit-exactly
        (shortest round-trip decimal representation).  The values are
        written as json.dumps(indent=1) would write them, float repr one per
        line, and spliced into the dumped head.  Each distinct value is
        formatted once, so the cost scales with the number of distinct
        values plus a cheap per-cell gather and join."""
        doc = {
            "space": self.space,
            "coords": self.coords,
            "axis1": asdict(self.axis1),
            "axis2": asdict(self.axis2),
            "values": [],
            **_params_doc(self.pump, self.crystal, self.model),
        }
        # strings escape their newlines, so this line can only be the key
        head, tail = json.dumps(doc, indent=1).split('\n "values": []', 1)
        reprs = _format_distinct(self.values.ravel(), float.__repr__)
        reprs[0] = head + '\n "values": [\n  ' + reprs[0]
        reprs[-1] += "\n ]" + tail
        return ",\n  ".join(reprs)

    @classmethod
    def from_json(cls, text: str) -> "JointGrid":
        doc = json.loads(text)
        ax1 = Axis(**doc["axis1"])
        ax2 = Axis(**doc["axis2"])
        values = np.array(doc["values"], dtype=float).reshape(ax1.count, ax2.count)
        return cls(
            space=doc["space"],
            coords=doc["coords"],
            axis1=ax1,
            axis2=ax2,
            values=values,
            pump=PumpParams(**doc["pump"]) if "pump" in doc else None,
            crystal=CrystalParams(**doc["crystal"]) if "crystal" in doc else None,
            model=PhaseMatchModel.from_dict(doc["model"]) if "model" in doc else None,
        )

    def to_csv(self) -> str:
        """Readable export: header comments, first row axis2 centres, then
        one row per axis1 centre.  9 significant digits.  Each distinct value
        is formatted once, so the cost scales with the number of distinct
        values plus a cheap per-cell gather and join."""
        lines = [
            f"# joint density, space={self.space}, coords={self.coords}",
            f"# rows: {self.axis1.label or 'axis1'} centres;"
            f" columns: {self.axis2.label or 'axis2'} centres",
        ]
        c2 = ",".join(map(_g9, self.axis2.centers.tolist()))
        lines.append(f"{self.axis1.label or 'axis1'}\\{self.axis2.label or 'axis2'},{c2}")
        rows = _format_distinct(self.values, _g9)
        for center, row in zip(self.axis1.centers.tolist(), rows):
            lines.append(_g9(center) + "," + ",".join(row))
        del rows  # free the cell strings before the text is joined
        lines.append("")  # the trailing newline, without a second copy of the text
        return "\n".join(lines)


def evaluate_grid(
    p: PumpParams,
    c: CrystalParams,
    m: PhaseMatchModel,
    space: str,
    coords: str,
    axes: tuple[Axis, Axis] | None = None,
) -> JointGrid:
    """Sample the joint density at cell centres.

    Rotated coordinates build the exact outer product of the two factor
    marginals.  Lab cell (k, j) holds plus((s_k + i_j)/sqrt2) *
    minus((s_k - i_j)/sqrt2).  On axes of one step, s + i and s - i each take
    n1 + n2 - 1 values: each factor is sampled once on them and the grid is
    the product of a Hankel and a Toeplitz view of the samples.  Other lab
    axes take one broadcast product over every cell; axes None takes
    default_axes.  Raises UnknownChoice for an unknown space or coords
    before any build, FloatingPointError naming a Gaussian variance out of
    range or raising (params._closed_form) before any table lookup, and
    GridTooCoarse, suggesting a count, when a 1/e width spans under 4 cells.
    """
    _check_coords(coords)
    plus, minus = _factor_pair(p, c, m, space)
    ax1, ax2 = _axes(plus, minus, space, coords, None) if axes is None else axes
    _check_resolution(_widths(plus, minus, coords), ax1, ax2)

    if coords == "rotated":
        values = np.outer(plus.marginal(ax1.centers), minus.marginal(ax2.centers))
    elif ax1.step == ax2.step:
        # s_k + i_j is sums[k + j], s_k - i_j is diffs[k - j + n2 - 1]
        n2 = ax2.count
        n = ax1.count + n2 - 1
        mid1, mid2 = 0.5 * (ax1.lo + ax1.hi), 0.5 * (ax2.lo + ax2.hi)
        sums = plus.marginal(_ladder(mid1 + mid2, n, ax1.step) / _SQRT2)
        diffs = minus.marginal(_ladder(mid1 - mid2, n, ax1.step) / _SQRT2)
        values = sliding_window_view(sums, n2) * sliding_window_view(diffs, n2)[:, ::-1]
    else:
        s, i = ax1.centers[:, None], ax2.centers[None, :]
        values = plus.marginal((s + i) / _SQRT2) * minus.marginal((s - i) / _SQRT2)

    values.setflags(write=False)  # the grid takes it over without a copy
    return JointGrid(
        space=space, coords=coords, axis1=ax1, axis2=ax2, values=values,
        pump=p, crystal=c, model=m,
    )


def widths_from_grid(g: JointGrid) -> tuple[float, float]:
    """(diagonal width, anti-diagonal width) as standard deviations of the
    rotated coordinates, from grid moments.  For rotated grids these are
    the per-axis deviations; for lab grids the rotation identity
    var(v_pm) = (var_s + var_i +/- 2 cov)/2 converts the moment tensor.
    Raises ZeroMass on an all-zero grid."""
    mom = grid_moments(g.values, g.axis1.centers, g.axis2.centers)
    if g.coords == "rotated":
        return math.sqrt(mom.var1), math.sqrt(mom.var2)
    var_plus = 0.5 * (mom.var1 + mom.var2 + 2.0 * mom.covar)
    var_minus = 0.5 * (mom.var1 + mom.var2 - 2.0 * mom.covar)
    # rounding can push a degenerate direction below zero
    return math.sqrt(max(var_plus, 0.0)), math.sqrt(max(var_minus, 0.0))
