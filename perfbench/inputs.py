"""Seeded input generation for the benchmark workloads.

Pure Python, no package import: a seed maps to plain data (config text,
profile CSV text, parameter dicts) and the workload code hands only that
data to the program.  Every workload is stratified: the seed picks numeric
values and order, never the mix of request kinds, so two seeds do the same
kinds of work and their timings are comparable.

Lengths in micrometres, wave numbers in rad/um, as in the package.
"""

from __future__ import annotations

import math
import random

# cold_joint: one request per class and pass.  (space, coords, model,
# profile segments, exit face at z0 = L?).  Profile stacks of more than two
# segments are left out: a 16-segment momentum request takes about a minute.
COLD_JOINT_CLASSES = (
    ("momentum", "rotated", "sinc", 0, True),
    ("momentum", "lab", "sinc", 0, False),
    ("position", "rotated", "sinc", 0, True),
    ("position", "lab", "sinc", 0, False),
    ("momentum", "lab", "gauss", 0, True),
    ("position", "rotated", "gauss", 0, False),
    ("position", "lab", "profile", 1, True),
    ("momentum", "rotated", "profile", 2, False),
)

GRID = 256

# lab_export: fill sizes come from these bands, one per band and space.  The
# bands are narrow so that a pass costs the same whatever the seed, and the
# top band is the single size 2048 so that the largest fill never changes.
# Exported grids are fixed at 512^2: at 1024^2 one export takes 5 s and the
# process peaks near 0.9 GB.
LAB_BANDS = ((1024, 1040), (1440, 1456), (1760, 1776), (2048, 2049))
LAB_EXPORT_COUNT = 512

PHASE_NX, PHASE_NY = 300, 400


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _fmt(v: float) -> str:
    return "inf" if math.isinf(v) else repr(float(v))


def config_text(pump: dict, crystal: dict) -> str:
    """The package's key = value config format for one parameter set."""
    lines = [
        f"pump.w = {_fmt(pump['w'])}",
        f"pump.ell_c = {_fmt(pump['ell_c'])}",
        f"pump.R = {_fmt(pump['R'])}",
        f"pump.k_p = {_fmt(pump['k_p'])}",
        f"crystal.L = {_fmt(crystal['L'])}",
        f"crystal.z0 = {_fmt(crystal['z0'])}",
    ]
    return "\n".join(lines) + "\n"


def profile_csv(segments: list) -> str:
    rows = ["z_start,z_end,chi2"] + [f"{a!r},{b!r},{amp!r}" for a, b, amp in segments]
    return "\n".join(rows) + "\n"


def _alternating(n: int, length: float, z_start: float) -> list:
    seg = length / n
    return [
        [z_start + k * seg, z_start + (k + 1) * seg, 1.0 if k % 2 == 0 else -1.0]
        for k in range(n)
    ]


def _pump_crystal(rng: random.Random, y_range, x_max: float, curv_max: float, exit_face: bool):
    """Pump and crystal spread over decades, held to a dimensionless window.

    y = sqrt(L / (k_p w^2)) sets the minus-to-plus width ratio and x = w/ell_c
    the pump's incoherence; lab grids need the two factor widths within about
    an order of magnitude of each other, so lab requests get narrower windows.
    """
    w = _log_uniform(rng, 10.0, 1000.0)
    k_p = _log_uniform(rng, 5.0, 20.0)
    y = _log_uniform(rng, *y_range)
    L = y * y * k_p * w * w
    x = rng.uniform(0.0, x_max)
    ell_c = math.inf if x < 0.05 * x_max else w / x
    R = math.inf
    if rng.random() < 0.5:
        # curvature term (w^2 k_p / R)
        R = rng.choice((-1.0, 1.0)) * w * w * k_p / rng.uniform(0.1, curv_max)
    pump = {"w": w, "k_p": k_p, "ell_c": ell_c, "R": R}
    crystal = {"L": L, "z0": L if exit_face else 0.5 * L}
    return pump, crystal


def cold_joint(seed: int) -> dict:
    """One `spdc joint` request per class, in seeded order."""
    rng = random.Random(f"cold_joint/{seed}")
    requests = []
    for space, coords, model, segments, exit_face in COLD_JOINT_CLASSES:
        if coords == "lab":
            pump, crystal = _pump_crystal(rng, (0.8, 1.25), 1.0, 0.5, exit_face)
        else:
            pump, crystal = _pump_crystal(rng, (0.3, 3.0), 3.0, 1.0, exit_face)
        argv = ["joint", "--space", space, "--coords", coords, "--model", model, "--grid", str(GRID)]
        prof = None
        if model == "profile":
            prof = profile_csv(_alternating(segments, crystal["L"], crystal["z0"] - crystal["L"]))
        requests.append(
            {
                "argv": argv,
                "config": config_text(pump, crystal),
                "profile": prof,
                "space": space,
                "coords": coords,
                "model": model,
                "pair": [crystal["L"], crystal["z0"], pump["k_p"], model, segments],
            }
        )
    rng.shuffle(requests)
    return {"requests": requests}


def survey(seed: int) -> dict:
    """Coherence sweeps over three crystal/model pairs, then one phase diagram.

    Each pair keeps its crystal and pump width and sweeps ell_c from w/100
    to 10 w, then the coherent limit, then one curved wavefront.
    """
    rng = random.Random(f"survey/{seed}")
    pairs = []
    for model, exit_face in (("sinc", True), ("sinc", False), ("gauss", True)):
        w = _log_uniform(rng, 30.0, 300.0)
        k_p = _log_uniform(rng, 5.0, 20.0)
        y = _log_uniform(rng, 0.5, 2.0)
        L = y * y * k_p * w * w
        points = []
        for lo, hi in ((0.01, 0.1), (0.1, 10.0)):
            points.append({"ell_c": w * _log_uniform(rng, lo, hi), "R": math.inf})
        points.append({"ell_c": math.inf, "R": math.inf})
        curv = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)
        points.append({"ell_c": w * _log_uniform(rng, 0.1, 10.0), "R": w * w * k_p / curv})
        pairs.append(
            {
                "model": model,
                "w": w,
                "k_p": k_p,
                "crystal": {"L": L, "z0": L if exit_face else 0.5 * L},
                "points": points,
            }
        )
    phase = {
        "x_max": rng.uniform(2.0, 4.0),
        "y_max": rng.uniform(3.0, 5.0),
        "nx": PHASE_NX,
        "ny": PHASE_NY,
        "alpha": rng.uniform(0.3, 0.7),
    }
    return {"pairs": pairs, "phase": phase}


def lab_export(seed: int) -> dict:
    """Lab-coordinate fills of two factor sets built at set-up.

    Factor sets: sinc momentum and exit-face sinc position (the default
    geometry).  Per pass, one fill per size band and space, plus one
    exported grid per space.  Two exports in ten ops keep the exports
    above the op_tail_s rank, which then falls among the 2048^2 fills: the
    exports are interpreter-bound and slowed 40-50% in the host's slow
    spells, against 7% for the fills.
    """
    rng = random.Random(f"lab_export/{seed}")
    factors = []
    for space in ("momentum", "position"):
        w = _log_uniform(rng, 30.0, 300.0)
        k_p = _log_uniform(rng, 5.0, 20.0)
        y = _log_uniform(rng, 0.8, 1.25)
        L = y * y * k_p * w * w
        x = rng.uniform(0.0, 1.0)
        factors.append(
            {
                "space": space,
                "pump": {"w": w, "k_p": k_p, "ell_c": w / x if x > 0.05 else math.inf, "R": math.inf},
                "crystal": {"L": L, "z0": L},
            }
        )
    ops = []
    for f in range(len(factors)):
        for lo, hi in LAB_BANDS:
            ops.append({"factor": f, "count": rng.randrange(lo, hi), "export": False})
        ops.append({"factor": f, "count": LAB_EXPORT_COUNT, "export": True})
    rng.shuffle(ops)
    return {"factors": factors, "ops": ops}


def validate(seed: int) -> dict:
    """The validate battery has fixed inputs; the seed is unused."""
    return {}


GENERATORS = {
    "cold_joint": cold_joint,
    "survey": survey,
    "lab_export": lab_export,
    "validate": validate,
}
