"""Physical parameter bundles and the flat key=value config format.

Unit convention, used by every module in this package:

* all lengths in micrometres (um),
* all transverse wave vectors in rad/um,
* densities normalized to unit integral over their 2D plane,
* entanglement witnesses compared against the dimensionless 1/2
  (working with wave vectors q = p/hbar removes hbar everywhere).

``math.inf`` is the sentinel for "this term is absent": an infinite
coherence length means a fully coherent pump, an infinite curvature
radius a flat phase front.  In config files the string ``inf`` maps to
the sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveParameter, ParameterMismatch, ParseError

__all__ = [
    "PumpParams",
    "CrystalParams",
    "read_config",
    "load_params",
    "params_dict",
    "CONFIG_KEYS",
    "DEFAULT_ALPHA",
]

#: default Gaussian-approximation width parameter; the common rounded value.
#: ``phasematch.calibrate_alpha`` recomputes it from scratch.
DEFAULT_ALPHA = 0.455


def _require_positive_finite(x, names) -> None:
    for name in names:
        v = getattr(x, name)
        if not (0.0 < v < math.inf):
            raise NonPositiveParameter(name, f"need a positive finite value, got {v!r}")


@dataclass(frozen=True)
class PumpParams:
    """Gaussian Schell-model pump at the crystal plane.

    w      beam width (um)
    k_p    pump wave number (rad/um)
    ell_c  transverse coherence length (um); inf = fully coherent
    R      wavefront curvature radius (um), signed; inf = flat phase

    Construction raises NonPositiveParameter unless w, k_p are positive and
    finite, ell_c positive (inf allowed) and R nonzero (inf allowed); the
    sign of an absent phase term is meaningless, so R = -inf becomes +inf.
    """

    w: float
    k_p: float
    ell_c: float = math.inf
    R: float = math.inf

    def __post_init__(self):
        _require_positive_finite(self, ("w", "k_p"))
        if math.isnan(self.ell_c) or self.ell_c <= 0.0:
            raise NonPositiveParameter("ell_c", f"need a positive value (inf allowed), got {self.ell_c!r}")
        if math.isnan(self.R) or self.R == 0.0:
            raise NonPositiveParameter("R", f"need a nonzero value (inf allowed), got {self.R!r}")
        if self.R == -math.inf:
            object.__setattr__(self, "R", math.inf)


@dataclass(frozen=True)
class CrystalParams:
    """Nonlinear crystal geometry and phase-matching knobs.

    L      crystal length (um)
    k_p    pump wave number (rad/um); must match the pump's when combined
    z0     exit-face position (um): the crystal occupies [z0 - L, z0].
           Defaults to L, i.e. the entrance face sits at the origin.
           z0 = L/2 centres the crystal on the origin and makes the
           longitudinal spectrum purely real.
    alpha  width parameter of the Gaussian phase-matching approximation
    beta   nondegeneracy, beta^2 = k_i/k_s; only the degenerate pair,
           beta = 1, is modelled

    Construction raises NonPositiveParameter unless L, k_p, alpha and 1/L
    (the sinc chi2) are positive and finite, z0 finite (either sign), z0 - L
    finite and below z0 (L must not vanish next to z0), and beta = 1.
    """

    L: float
    k_p: float
    z0: float | None = None
    alpha: float = DEFAULT_ALPHA
    beta: float = 1.0

    def __post_init__(self):
        if self.z0 is None:
            object.__setattr__(self, "z0", float(self.L))
        _require_positive_finite(self, ("L", "k_p", "alpha"))
        if not 1.0 / self.L < math.inf:
            raise NonPositiveParameter("L", f"need a length whose reciprocal is finite, got {self.L!r}")
        if not math.isfinite(self.z0):
            raise NonPositiveParameter("z0", f"need a finite position, got {self.z0!r}")
        if not -math.inf < self.z0 - self.L < self.z0:
            raise NonPositiveParameter(
                "z0", f"need a finite entrance face z0 - L < z0, got L = {self.L!r}, z0 = {self.z0!r}"
            )
        if self.beta != 1.0:
            raise NonPositiveParameter(
                "beta", f"only degenerate pairs are modelled, need 1, got {self.beta!r}"
            )


def _require_same_k_p(p: PumpParams, c: CrystalParams) -> None:
    """Raise ParameterMismatch unless pump and crystal share one k_p: every
    result that combines the two reads the crystal's k_p as the pump's."""
    if p.k_p != c.k_p:
        raise ParameterMismatch("pump and crystal disagree on k_p")


def _closed_form(f, x, name: str = "") -> float:
    """f(x), a closed-form number that must be positive and finite.  Raises
    FloatingPointError naming it (name, or f's own) when it is not, or when its
    float arithmetic raised (a ** that overflows, a divisor underflowed to 0)."""
    try:
        if 0.0 < (v := f(x)) < math.inf:
            return v
        detail = f" = {v!r}, need a positive finite value"
    except ArithmeticError as exc:  # float ** gives (errno, text)
        detail = f": {exc.args[-1]}"
    raise FloatingPointError((name or f.__name__) + detail)


# -- config file format ------------------------------------------------------
#
# Flat `key = value` lines, '#' comments, blank lines ignored.  The value
# "inf" (any case) is the infinite sentinel.  crystal.k_p is not a key:
# the crystal inherits the pump wave number.

CONFIG_KEYS = (
    "pump.w",
    "pump.ell_c",
    "pump.R",
    "pump.k_p",
    "crystal.L",
    "crystal.z0",
    "crystal.alpha",
    "crystal.beta",
)

_REQUIRED_KEYS = ("pump.w", "pump.k_p", "crystal.L")


def read_config(text: str, source: str = "<config>") -> tuple[PumpParams, CrystalParams]:
    """Parse config text into parameter bundles, which check themselves.

    Missing optional keys take their dataclass defaults (ell_c = R = inf,
    z0 = L, alpha = 0.455, beta = 1).  Unknown or duplicate keys are
    rejected with the offending line number.
    """
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(source, lineno, f"expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(source, lineno, f"unknown key {key!r}")
        if key in values:
            raise ParseError(source, lineno, f"duplicate key {key!r} (first on line {lines[key]})")
        try:
            num = float(val)
        except ValueError:
            raise ParseError(source, lineno, f"cannot parse {val!r} as a number") from None
        if math.isnan(num):
            raise ParseError(source, lineno, "nan is not a valid parameter value")
        values[key] = num
        lines[key] = lineno
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ParseError(source, 0, f"missing required key {key!r}")

    kwargs = {"pump": {}, "crystal": {"k_p": values["pump.k_p"]}}
    for key, num in values.items():
        section, _, name = key.partition(".")
        kwargs[section][name] = num
    return PumpParams(**kwargs["pump"]), CrystalParams(**kwargs["crystal"])


def load_params(path) -> tuple[PumpParams, CrystalParams]:
    """``read_config`` on a file path; a leading byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return read_config(fh.read(), source=str(path))


def params_dict(x: PumpParams | CrystalParams) -> dict[str, float]:
    """The fields of a parameter bundle as a dict, in CONFIG_KEYS order;
    a crystal's k_p, which is not a config key, comes last."""
    section = "pump." if isinstance(x, PumpParams) else "crystal."
    names = [key[len(section):] for key in CONFIG_KEYS if key.startswith(section)]
    return {name: getattr(x, name) for name in dict.fromkeys(names + ["k_p"])}


def _params_doc(p: PumpParams | None, c: CrystalParams | None, m=None, **extra) -> dict:
    """The parameter block of a manifest (cli) and of grid JSON
    (``JointGrid.to_json``): pump, crystal, extra, then the model's
    ``as_dict``; a pump, crystal or model of None is left out."""
    doc = {name: params_dict(x) for name, x in (("pump", p), ("crystal", c)) if x is not None}
    doc.update(extra)
    if m is not None:
        doc["model"] = m.as_dict()
    return doc
