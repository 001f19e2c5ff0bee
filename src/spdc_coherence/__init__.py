"""Joint transverse distributions and continuous-variable entanglement
witnesses for photon pairs produced by a partially coherent Gaussian
Schell-model pump.

The joint two-photon distributions factorize in rotated (diagonal /
anti-diagonal) coordinates: the pump fixes the diagonal factor, the
longitudinal phase-matching spectrum fixes the anti-diagonal one.
Everything downstream (width products, witnesses, phase diagram) builds
on those two factors.  Units: lengths in micrometres, transverse wave
vectors in rad/um.
"""

from .entanglement import (
    ANTI,
    CORRELATED,
    NONE,
    PhaseDiagram,
    PhaseDiagramCell,
    WitnessReport,
    classify,
    classify_xy,
    product_mp,
    product_pm,
    sweep_phase_diagram,
)
from .errors import (
    GridTooCoarse,
    NegativeArgument,
    NonPositiveParameter,
    NoSignChange,
    ParameterMismatch,
    ParseError,
    UnknownChoice,
    ZeroMass,
)
from .joint import (
    Axis,
    JointGrid,
    default_axes,
    evaluate_grid,
    widths_from_grid,
)
from .numerics import (
    Moments,
    exp1_i,
    find_root,
    grid_moments,
    sinc,
)
from .params import (
    DEFAULT_ALPHA,
    CrystalParams,
    PumpParams,
    load_params,
    read_config,
)
from .phasematch import (
    EXACT_SINC,
    GAUSSIAN_APPROX,
    NonlinearityProfile,
    PhaseMatchModel,
    calibrate_alpha,
    chi_tilde,
    chi_tilde_profile,
    chi_tilde_sinc,
    load_profile,
    variance_q_minus,
    variance_rho_minus,
)
from .pump import (
    variance_q_plus,
    variance_rho_plus,
)

__version__ = "0.1.0"
