"""Command line surface.

Five commands: `variances` (closed-form width report), `joint` (sampled
joint density to CSV + JSON), `phase-diagram` (witness classification
sweep), `phasematch` (spectrum table for a model), `validate` (oracle
battery).  Every run writes a manifest next to its outputs recording the
resolved inputs; outputs themselves are byte-deterministic for identical
inputs.  Exit codes: 0 success, 1 validation failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import classify, sweep_phase_diagram, sweep_to_csv
from .errors import GridTooCoarse, ParseError
from .joint import DEFAULT_COUNT, MAX_DEFAULT_COUNT, default_axes, evaluate_grid, widths_from_grid
from .numerics import _g9
from .params import DEFAULT_ALPHA, load_params, params_dict
from .phasematch import (
    PhaseMatchModel,
    chi_tilde,
    load_profile,
    variance_q_minus,
    variance_rho_minus,
)
from .pump import variance_q_plus, variance_rho_plus


def _params_doc(p, c, m: PhaseMatchModel | None = None, **extra) -> dict:
    doc = {"pump": params_dict(p), "crystal": params_dict(c), **extra}
    if m is not None:
        doc["model"] = m.as_dict()
    return doc


def _model_from_args(args) -> PhaseMatchModel:
    if args.model == "profile":
        if not args.profile:
            raise ParseError("cli", 0, "--model profile requires --profile <csv>")
        return PhaseMatchModel.from_profile(load_profile(args.profile))
    if args.profile:
        raise ParseError("cli", 0, f"--profile only applies to --model profile, not {args.model!r}")
    return PhaseMatchModel(args.model)


# Each command writes its outputs through write(name, text) and returns
# (manifest parameters, exit code); main times it and writes the manifest.


def cmd_variances(args, write):
    p, c = load_params(args.config)
    doc = {
        "variance_rho_plus": variance_rho_plus(p),
        "variance_q_plus": variance_q_plus(p),
        "variance_rho_minus": variance_rho_minus(c),
        "variance_q_minus": variance_q_minus(c),
        **classify(p, c)._asdict(),
    }
    for key, val in doc.items():
        print(f"{key} = {json.dumps(val)}")
    write("variances.json", json.dumps(doc, indent=1) + "\n")
    return _params_doc(p, c), 0


def cmd_joint(args, write):
    p, c = load_params(args.config)
    m = _model_from_args(args)
    axes = default_axes(p, c, m, args.space, args.coords, count=args.grid)
    grid = evaluate_grid(p, c, m, args.space, args.coords, axes)
    stem = f"joint_{args.space}_{args.coords}"
    write(f"{stem}.csv", grid.to_csv())
    write(f"{stem}.json", grid.to_json() + "\n")
    dp, dm = widths_from_grid(grid)
    print(
        f"{stem}: {grid.axis1.count}x{grid.axis2.count} cells, mass {grid.mass:.6f}, "
        f"diagonal width {dp:.6g}, anti-diagonal width {dm:.6g}"
    )
    return _params_doc(p, c, m, space=args.space, coords=args.coords, grid=grid.axis1.count), 0


def cmd_phase_diagram(args, write):
    diagram = sweep_phase_diagram((0.0, args.x_max), (0.0, args.y_max), args.nx, args.ny, args.alpha)
    write("phase_diagram.csv", sweep_to_csv(diagram))
    total = diagram.type1.size
    frac1 = np.count_nonzero(diagram.type1) / total
    frac2 = np.count_nonzero(diagram.type2) / total
    print(
        f"phase diagram {args.nx}x{args.ny}, alpha={args.alpha}: "
        f"type1 area fraction {frac1:.4f}, type2 area fraction {frac2:.4f}, "
        f"neither {1.0 - frac1 - frac2:.4f}"
    )
    params = {
        "x_max": args.x_max,
        "y_max": args.y_max,
        "nx": args.nx,
        "ny": args.ny,
        "alpha": args.alpha,
    }
    return params, 0


def cmd_phasematch(args, write):
    p, c = load_params(args.config)
    m = _model_from_args(args)
    if args.dk_max is not None:
        dk_max = args.dk_max
        # 0 < v < inf is False for nan as well
        if not 0.0 < dk_max < math.inf:
            raise ParseError("cli", 0, "--dk-max must be finite and positive")
    else:
        feature = m.profile.min_segment_length if m.profile is not None else c.L
        dk_max = 16.0 * math.pi / feature
    if args.n < 2:
        raise ParseError("cli", 0, "--n must be at least 2")
    dks = np.linspace(0.0, dk_max, args.n)
    vals = np.asarray(chi_tilde(dks, c, m), dtype=complex)
    lines = ["delta_kappa,re_chi,im_chi,abs_chi_sq"]
    for dk, v in zip(dks, vals):
        lines.append(",".join(map(_g9, (dk, v.real, v.imag, abs(v) ** 2))))
    name = f"phasematch_{m.kind}.csv"
    write(name, "\n".join(lines) + "\n")
    print(f"{name}: {args.n} samples over mismatch [0, {dk_max:.6g}]")
    return _params_doc(p, c, m, dk_max=dk_max, n=args.n), 0


def cmd_validate(args, write):
    from .validation import run_all

    t0 = time.perf_counter()
    results = run_all()
    for r in results:
        print(r.line())
    write("validate_report.json", json.dumps([r._asdict() for r in results], indent=1) + "\n")
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"validation failed at: {failures[0]}", file=sys.stderr)
        return {}, 1
    print(f"all {len(results)} checks passed in {time.perf_counter() - t0:.1f} s")
    return {}, 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spdc",
        description="Joint transverse distributions and entanglement witnesses "
        "for photon pairs from a partially coherent pump.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="spdc-out", help="output directory (default: ./spdc-out)")

    def with_config(sp):
        sp.add_argument("--config", required=True, help="parameter file (key = value lines)")

    def with_model(sp):
        sp.add_argument(
            "--model",
            choices=("sinc", "gauss", "profile"),
            default="sinc",
            help="phase-matching model (default: sinc)",
        )
        sp.add_argument("--profile", help="piecewise nonlinearity CSV for --model profile")

    sp = sub.add_parser("variances", help="closed-form variances, witness products, classification")
    with_config(sp)
    common(sp)
    sp.set_defaults(fn=cmd_variances)

    sp = sub.add_parser("joint", help="sampled joint density grid")
    with_config(sp)
    common(sp)
    sp.add_argument("--space", choices=("momentum", "position"), default="momentum")
    sp.add_argument("--coords", choices=("rotated", "lab"), default="rotated")
    sp.add_argument("--grid", type=int, help=f"cells per axis (default: {DEFAULT_COUNT}, "
                    f"or up to {MAX_DEFAULT_COUNT} as the resolution guard asks)")
    with_model(sp)
    sp.set_defaults(fn=cmd_joint)

    sp = sub.add_parser("phase-diagram", help="witness classification sweep over (x, y)")
    common(sp)
    sp.add_argument("--x-max", type=float, default=3.0, help="w/ell_c upper limit (default 3)")
    sp.add_argument("--y-max", type=float, default=4.0, help="sqrt(L/(k_p w^2)) upper limit (default 4)")
    sp.add_argument("--nx", type=int, default=60)
    sp.add_argument("--ny", type=int, default=80)
    sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sp.set_defaults(fn=cmd_phase_diagram)

    sp = sub.add_parser("phasematch", help="spectrum table (mismatch, Re, Im, modulus squared)")
    with_config(sp)
    common(sp)
    with_model(sp)
    sp.add_argument("--dk-max", type=float, default=None, help="mismatch upper limit (default: 16 pi / feature length)")
    sp.add_argument("--n", type=int, default=1024, help="sample count (default 1024)")
    sp.set_defaults(fn=cmd_phasematch)

    sp = sub.add_parser("validate", help="run all oracle cross-checks")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    out = Path(args.out)
    outputs = []

    def write(name: str, text: str):
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
        outputs.append(name)

    try:
        # a finite input so extreme that numpy overflows or divides by zero
        # raises FloatingPointError here instead of warning on to a bad grid
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            parameters, code = args.fn(args, write)
        manifest = {
            "command": args.command,
            "version": __version__,
            "parameters": parameters,
            "outputs": list(outputs),
            "duration_s": round(time.perf_counter() - t0, 3),
        }
        name = args.command.replace("-", "_") + "_manifest.json"
        write(name, json.dumps(manifest, indent=1) + "\n")
        return code
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        # every package error is a ValueError; ArithmeticError: a finite
        # parameter so extreme that float arithmetic fails; MemoryError: a
        # grid too large to allocate
        kind = ("grid too coarse: " if isinstance(exc, GridTooCoarse)
                else "out of floating-point range: " if isinstance(exc, ArithmeticError)
                else "out of memory: " if isinstance(exc, MemoryError) else "")
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
