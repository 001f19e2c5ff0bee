"""Joint two-photon distributions across one transverse component per
photon, on lab or rotated axes.

Both joint densities factorize in the rotated frame: the diagonal
(plus) factor comes from the pump and is always Gaussian, the
anti-diagonal (minus) factor comes from phase matching and is Gaussian
only under the Gaussian model.  Grids therefore hold products of two 1D
marginals; in rotated coordinates the factorization is exact by
construction (outer product), in lab coordinates the axes mix and the
density develops the familiar tilted-ellipse correlations.

Each factor is a frozen _Marginal1D: _gaussian_marginal builds the
closed-form one of a Gaussian factor, _tabulated_marginal the
interpolation table of a heavy-tailed radial density.  Only the minus
factor can need a table, and it does not depend on the pump: it is
cached per (crystal, model, space), so a sweep over pump coherence
builds it once.  The plus factor is always Gaussian and never cached.

Grid values are raw samples of the normalized joint density at cell
centres; nothing is renormalized after sampling, so cell sums are an
honest accuracy diagnostic.  Heavy-tailed minus factors (exact sinc and
profile models) put a percent-level mass fraction outside any
reasonable default window; the contract here is stability (mass drift
< 1e-4 under refinement), not unit cell sums.

One sharp edge: the exit-face (z0 = L) position density carries an
integrable log-squared peak at the origin, micron-scale for typical
parameters, holding roughly half a percent of the mass.  It sits well
above 1/e of the peak, so the coarseness guard cannot see it; default
grids simply sample across it and their cell sums soften accordingly.
Centred crystals (z0 = L/2) have no such feature.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridTooCoarse, ParseError, ZeroMass
from .numerics import Grid2D, grid_moments
from .params import CrystalParams, PumpParams, params_dict
from .phasematch import (
    PhaseMatchModel,
    NonlinearityProfile,
    RadialDensity,
    momentum_radial_density,
    position_radial_density,
)
from .pump import variance_q_plus, variance_rho_plus

__all__ = [
    "Axis",
    "JointGrid",
    "joint_momentum_density",
    "joint_position_density",
    "default_axes",
    "evaluate_grid",
    "widths_from_grid",
]

_SQRT2 = math.sqrt(2.0)

# marginalization quadrature for non-Gaussian factors
_MARGINAL_NODES = 4097
_MARGINAL_QUAD = 4096
# probe rows per block: each float64 temporary of a block holds
# _PROBE_CHUNK x _MARGINAL_QUAD values (1 MB at 32 rows), small enough to
# stay in a per-core L2 cache; row sums do not depend on the block height
_PROBE_CHUNK = 32

DEFAULT_COUNT = 256


@dataclass(frozen=True)
class Axis:
    """Cell-centred axis: count cells spanning [lo, hi]."""

    lo: float
    hi: float
    count: int
    label: str = ""

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"axis range [{self.lo!r}, {self.hi!r}] has non-positive width")
        if self.count < 8:
            raise GridTooCoarse(f"axis needs at least 8 cells, got {self.count}", suggested_count=8)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.count

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.count) + 0.5) * self.step


@dataclass(frozen=True, eq=False)
class _Marginal1D:
    """1D marginal of a radially symmetric 2D factor: closed form when
    sigma is set (Gaussian factors), else linear interpolation in the
    (nodes, vals) table, zero beyond it.  width_half is the 1/e half-width
    of the marginal, the resolution scale the grid guard works with;
    half_range_default is the +/- window default axes use.
    """

    width_half: float
    half_range_default: float
    sigma: float | None = None
    nodes: np.ndarray | None = None
    vals: np.ndarray | None = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.sigma is not None:
            s2 = self.sigma * self.sigma
            out = np.exp(-t * t / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
        else:
            out = np.interp(np.abs(t), self.nodes, self.vals, right=0.0)
        return float(out) if out.ndim == 0 else out


def _gaussian_marginal(sigma: float) -> _Marginal1D:
    """Closed-form marginal of a Gaussian factor, windowed at 5 sigma."""
    return _Marginal1D(width_half=_SQRT2 * sigma, half_range_default=5.0 * sigma, sigma=sigma)


def _tabulated_marginal(radial: RadialDensity) -> _Marginal1D:
    """Marginal of a non-Gaussian radial density, tabulated once by
    integrating it across the transverse direction."""
    span = radial.half_range
    nodes = np.linspace(0.0, span, _MARGINAL_NODES)
    hy = span / _MARGINAL_QUAD
    y = (np.arange(_MARGINAL_QUAD) + 0.5) * hy
    vals = np.empty(_MARGINAL_NODES)
    for start in range(0, _MARGINAL_NODES, _PROBE_CHUNK):
        block = nodes[start : start + _PROBE_CHUNK]
        r = np.sqrt(block[:, None] ** 2 + y[None, :] ** 2)
        vals[start : start + _PROBE_CHUNK] = 2.0 * hy * np.sum(radial.pdf(r), axis=1)
    # shared by every pump through the minus-factor cache
    nodes.setflags(write=False)
    vals.setflags(write=False)
    width_half = _width_from_table(nodes, vals)
    # default window by mass quantile: the sinc-family tails decay like
    # 1/t^2 in captured mass, so a fixed multiple of the 1/e width would
    # strand percents of it outside the grid
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes))))
    idx = int(np.searchsorted(cum, (1.0 - 1e-3) * cum[-1]))
    quantile = float(nodes[min(idx, nodes.size - 1)])
    half_range_default = min(span, max(quantile, 5.0 * width_half))
    return _Marginal1D(width_half, half_range_default, nodes=nodes, vals=vals)


def _width_from_table(nodes, vals) -> float:
    # full 1/e extent around the tallest feature, halved; for a
    # centre-peaked marginal this is the usual 1/e half-width, for an
    # edge-peaked one (poled profiles) it tracks the narrow feature
    peak = int(np.argmax(vals))
    cut = vals[peak] / math.e
    right = np.nonzero(vals[peak:] < cut)[0]
    hi = nodes[peak + right[0]] if right.size else nodes[-1]
    left = np.nonzero(vals[: peak + 1] < cut)[0]
    if left.size:
        lo = nodes[left[-1]]
        return 0.5 * (hi - lo)
    # peak connects to the origin: mirror symmetry supplies the left side
    return hi


@lru_cache(maxsize=32)
def _minus_marginal(c: CrystalParams, m: PhaseMatchModel, space: str) -> _Marginal1D:
    """The anti-diagonal marginal: phase matching only, so one build per
    (crystal, model, space) serves every pump."""
    radial = (momentum_radial_density if space == "momentum" else position_radial_density)(c, m)
    return _tabulated_marginal(radial) if radial.sigma is None else _gaussian_marginal(radial.sigma)


def _factor_pair(p: PumpParams, c: CrystalParams, m: PhaseMatchModel, space: str):
    """(plus marginal, minus marginal) for the requested space."""
    if p.k_p != c.k_p:
        raise ValueError("pump and crystal disagree on k_p")
    if space == "momentum":
        plus_var = variance_q_plus(p)
    elif space == "position":
        plus_var = variance_rho_plus(p)
    else:
        raise ValueError(f"unknown space {space!r}, expected 'momentum' or 'position'")
    return _gaussian_marginal(math.sqrt(plus_var)), _minus_marginal(c, m, space)


def joint_momentum_density(
    p: PumpParams, c: CrystalParams, m: PhaseMatchModel, q_s_x: float, q_i_x: float
) -> float:
    """Joint density of one transverse momentum component per photon,
    evaluated pointwise: product of the diagonal and anti-diagonal
    marginals at (q_s + q_i)/sqrt2 and (q_s - q_i)/sqrt2."""
    plus, minus = _factor_pair(p, c, m, "momentum")
    return float(plus((q_s_x + q_i_x) / _SQRT2) * minus((q_s_x - q_i_x) / _SQRT2))


def joint_position_density(
    p: PumpParams, c: CrystalParams, m: PhaseMatchModel, rho_s_x: float, rho_i_x: float
) -> float:
    """Position-space counterpart of joint_momentum_density."""
    plus, minus = _factor_pair(p, c, m, "position")
    return float(plus((rho_s_x + rho_i_x) / _SQRT2) * minus((rho_s_x - rho_i_x) / _SQRT2))


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
    count: int = DEFAULT_COUNT,
) -> tuple[Axis, Axis]:
    """Symmetric windows of +/- 5 widths per factor.  Rotated: one factor
    per axis.  Lab: each axis must contain the rotated box, so the two
    half-ranges combine as (h_plus + h_minus)/sqrt2."""
    if coords not in ("rotated", "lab"):
        raise ValueError(f"unknown coords {coords!r}, expected 'lab' or 'rotated'")
    plus, minus = _factor_pair(p, c, m, space)
    la, lb = _LABELS[(space, coords)]
    if coords == "rotated":
        hp, hm = plus.half_range_default, minus.half_range_default
        return Axis(-hp, hp, count, la), Axis(-hm, hm, count, lb)
    h = (plus.half_range_default + minus.half_range_default) / _SQRT2
    return Axis(-h, h, count, la), Axis(-h, h, count, lb)


def _workers() -> int:
    env = os.environ.get("SPDC_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParseError("SPDC_THREADS", 0, f"must be an integer, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


def _check_resolution(plus: _Marginal1D, minus: _Marginal1D, coords: str, ax1: Axis, ax2: Axis):
    # each factor's full 1/e width must span at least 4 cells; in lab
    # coordinates a rotated-frame feature of width W crosses an axis over
    # W*sqrt2, which relaxes the step requirement by sqrt2
    checks = []
    if coords == "rotated":
        checks.append((2.0 * plus.width_half, ax1))
        checks.append((2.0 * minus.width_half, ax2))
    else:
        w = 2.0 * min(plus.width_half, minus.width_half) * _SQRT2
        checks.append((w, ax1))
        checks.append((w, ax2))
    for width, ax in checks:
        if width < 4.0 * ax.step:
            need = math.ceil(4.0 * (ax.hi - ax.lo) / width)
            raise GridTooCoarse(
                f"axis {ax.label or '?'}: factor 1/e width {width:.6g} spans "
                f"{width / ax.step:.2f} cells, need at least 4",
                suggested_count=need,
            )


@dataclass(frozen=True)
class JointGrid:
    """Sampled joint density with axis metadata.

    values[i, j] is the density at (axis1 centre i, axis2 centre j).
    Optional params record what produced the grid; injected grids may
    leave them None.
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
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("grid values must be finite and non-negative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def cell_area(self) -> float:
        return self.axis1.step * self.axis2.step

    @property
    def mass(self) -> float:
        return float(np.sum(self.values)) * self.cell_area

    def as_grid2d(self) -> Grid2D:
        return Grid2D(
            axis1=(self.axis1.lo, self.axis1.hi, self.axis1.count),
            axis2=(self.axis2.lo, self.axis2.hi, self.axis2.count),
            values=self.values,
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Full-precision export; floats survive a load/dump cycle bit-exactly
        (shortest round-trip decimal representation)."""
        doc = {
            "space": self.space,
            "coords": self.coords,
            "axis1": _axis_doc(self.axis1),
            "axis2": _axis_doc(self.axis2),
            "values": [float(v) for v in self.values.ravel()],
        }
        if self.pump is not None:
            doc["pump"] = params_dict(self.pump)
        if self.crystal is not None:
            doc["crystal"] = params_dict(self.crystal)
        if self.model is not None:
            doc["model"] = {
                "kind": self.model.kind,
                "profile": (
                    None
                    if self.model.profile is None
                    else [list(seg) for seg in self.model.profile.segments]
                ),
            }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "JointGrid":
        doc = json.loads(text)
        ax1 = _axis_from_doc(doc["axis1"])
        ax2 = _axis_from_doc(doc["axis2"])
        values = np.array(doc["values"], dtype=float).reshape(ax1.count, ax2.count)
        pump = crystal = model = None
        if "pump" in doc:
            pump = PumpParams(**doc["pump"])
        if "crystal" in doc:
            crystal = CrystalParams(**doc["crystal"])
        if "model" in doc:
            d = doc["model"]
            prof = (
                None
                if d["profile"] is None
                else NonlinearityProfile(tuple(tuple(seg) for seg in d["profile"]))
            )
            model = PhaseMatchModel(d["kind"], prof)
        return cls(
            space=doc["space"],
            coords=doc["coords"],
            axis1=ax1,
            axis2=ax2,
            values=values,
            pump=pump,
            crystal=crystal,
            model=model,
        )

    def to_csv(self) -> str:
        """Readable export: header comments, first row axis2 centres, then
        one row per axis1 centre.  9 significant digits."""
        lines = [
            f"# joint density, space={self.space}, coords={self.coords}",
            f"# rows: {self.axis1.label or 'axis1'} centres;"
            f" columns: {self.axis2.label or 'axis2'} centres",
        ]
        c2 = ",".join(_g9(v) for v in self.axis2.centers)
        lines.append(f"{self.axis1.label or 'axis1'}\\{self.axis2.label or 'axis2'},{c2}")
        for center, row in zip(self.axis1.centers, self.values):
            lines.append(_g9(center) + "," + ",".join(_g9(v) for v in row))
        return "\n".join(lines) + "\n"


def _g9(v: float) -> str:
    return f"{v:.9g}"


def _axis_doc(ax: Axis) -> dict:
    return {"lo": ax.lo, "hi": ax.hi, "count": ax.count, "label": ax.label}


def _axis_from_doc(d: dict) -> Axis:
    return Axis(lo=d["lo"], hi=d["hi"], count=int(d["count"]), label=d.get("label", ""))


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
    marginals.  Lab coordinates rotate each sample point into the factor
    frame; rows are evaluated in parallel chunks (SPDC_THREADS caps the
    worker count) with a fixed assembly order, so results never depend
    on the thread count.  Raises GridTooCoarse, with a suggested count,
    when the narrower factor's 1/e width would span fewer than 4 cells.
    """
    plus, minus = _factor_pair(p, c, m, space)
    if axes is None:
        axes = default_axes(p, c, m, space, coords)
    ax1, ax2 = axes
    if coords not in ("rotated", "lab"):
        raise ValueError(f"unknown coords {coords!r}, expected 'lab' or 'rotated'")
    _check_resolution(plus, minus, coords, ax1, ax2)

    c1 = ax1.centers
    c2 = ax2.centers
    if coords == "rotated":
        values = np.outer(plus(c1), minus(c2))
    else:
        values = np.empty((ax1.count, ax2.count))

        def fill(rows: range):
            s = c1[rows.start : rows.stop, None]
            i = c2[None, :]
            values[rows.start : rows.stop] = plus((s + i) / _SQRT2) * minus((s - i) / _SQRT2)

        n_workers = _workers()
        if n_workers == 1 or ax1.count < 64:
            fill(range(0, ax1.count))
        else:
            chunk = math.ceil(ax1.count / n_workers)
            spans = [range(k, min(k + chunk, ax1.count)) for k in range(0, ax1.count, chunk)]
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                list(pool.map(fill, spans))

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
    mom = grid_moments(g.as_grid2d())
    if g.coords == "rotated":
        return math.sqrt(mom.var1), math.sqrt(mom.var2)
    var_plus = 0.5 * (mom.var1 + mom.var2 + 2.0 * mom.covar)
    var_minus = 0.5 * (mom.var1 + mom.var2 - 2.0 * mom.covar)
    # rounding can push a degenerate direction below zero
    return math.sqrt(max(var_plus, 0.0)), math.sqrt(max(var_minus, 0.0))
