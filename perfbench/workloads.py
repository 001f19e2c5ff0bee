"""The benchmark workloads: set-up, one pass of ops, and output checks.

A pass is a fixed list of (run, check) ops generated from the seed.
``check(output, h)`` feeds the output to the hash h and returns (problems,
pair key); problems is empty when every check on the output held.  Checks
run outside the op's timed interval, with tracing paused and their cache
lookups left out of the hit counts.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from spdc_coherence import cli, entanglement, joint, phasematch, pump, validation
from spdc_coherence.params import CrystalParams, PumpParams

# The mass that heavy-tailed (sinc, profile) minus factors leave outside the
# default window is "percent-level" and refinement may move it by less than
# 1e-4, as the joint module's docstring states.  The docstring exempts
# position densities with a face at z = 0 (log^2 peak at the origin) from
# the refinement bound, so they get only the window bound.
MASS_WINDOW = 0.02
REFINE_DRIFT = 1e-4
WIDTH_TOL = 0.01


def _face_at_origin(c: CrystalParams, m: phasematch.PhaseMatchModel) -> bool:
    if m.kind == "profile":
        return any(0.0 in (a, b) for a, b, _ in m.profile.segments)
    return c.z0 == c.L


def _plus_variance(p: PumpParams, space: str) -> float:
    return pump.variance_q_plus(p) if space == "momentum" else pump.variance_rho_plus(p)


def _minus_variance(c: CrystalParams, space: str) -> float:
    return phasematch.variance_q_minus(c) if space == "momentum" else phasematch.variance_rho_minus(c)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_grid(g: joint.JointGrid, widths, refine: bool) -> list:
    """Problems with one sampled grid; empty when it is sound."""
    p, c, m = g.pump, g.crystal, g.model
    tag = f"{g.space}/{g.coords}/{m.kind}"
    problems = []
    v = g.values
    if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
        problems.append(f"{tag}: values not finite and non-negative")
    dp, dm = widths
    want = math.sqrt(_plus_variance(p, g.space))
    if _rel(dp, want) > WIDTH_TOL:
        problems.append(f"{tag}: diagonal width {dp!r} vs closed form {want!r}")
    if m.kind == "gauss":
        want = math.sqrt(_minus_variance(c, g.space))
        if _rel(dm, want) > WIDTH_TOL:
            problems.append(f"{tag}: anti-diagonal width {dm!r} vs closed form {want!r}")
        return problems
    mass = g.mass
    if abs(mass - 1.0) > MASS_WINDOW:
        problems.append(f"{tag}: mass {mass!r} outside 1 +/- {MASS_WINDOW}")
    if refine and not (g.space == "position" and _face_at_origin(c, m)):
        fine_axes = tuple(joint.Axis(a.lo, a.hi, 2 * a.count, a.label) for a in (g.axis1, g.axis2))
        fine = joint.evaluate_grid(p, c, m, g.space, g.coords, fine_axes)
        if abs(fine.mass - mass) > REFINE_DRIFT:
            problems.append(f"{tag}: mass drift {fine.mass - mass!r} under refinement")
    return problems


def _hash_grid(h, g: joint.JointGrid, widths):
    h.update(g.values)
    h.update(repr(widths).encode())


class Workload:
    """Base: ``setup`` is the untimed warm-up, ``ops`` one pass."""

    #: "op" clears every cache before each op, "pass" once per pass, "never"
    #: keeps what set-up built
    clear = "never"

    def __init__(self, spec: dict, tmp: Path):
        self.spec = spec
        self.tmp = tmp
        #: pair keys whose factors set-up already built
        self.setup_pairs = set()

    def setup(self):
        pass

    def ops(self) -> list:
        raise NotImplementedError


class ColdJoint(Workload):
    clear = "op"

    def setup(self):
        self.requests = []
        for i, req in enumerate(self.spec["requests"]):
            cfg = self.tmp / f"req{i}.cfg"
            cfg.write_text(req["config"], encoding="utf-8")
            argv = req["argv"] + ["--config", str(cfg), "--out", str(self.tmp / f"out{i}")]
            if req["profile"] is not None:
                prof = self.tmp / f"req{i}_profile.csv"
                prof.write_text(req["profile"], encoding="utf-8")
                argv += ["--profile", str(prof)]
            stem = self.tmp / f"out{i}" / f"joint_{req['space']}_{req['coords']}"
            self.requests.append((argv, stem, tuple(req["pair"])))
        # one cheap request warms argparse, numpy and the thread pool
        warm = self.tmp / "warm.cfg"
        warm.write_text("pump.w = 10\npump.k_p = 10\ncrystal.L = 1000\n", encoding="utf-8")
        rc = cli.main(["joint", "--model", "gauss", "--coords", "lab", "--config", str(warm),
                       "--out", str(self.tmp / "warm")])
        if rc != 0:
            raise RuntimeError(f"warm-up request exited {rc}")

    def ops(self):
        return [self._op(*r) for r in self.requests]

    def _op(self, argv, stem, pair):
        def run():
            return cli.main(argv)

        def check(rc, h):
            if rc != 0:
                return [f"spdc {' '.join(argv[:7])} exited {rc}"], pair
            h.update(stem.with_suffix(".csv").read_bytes())
            json_text = stem.with_suffix(".json").read_text(encoding="utf-8")
            h.update(json_text.encode())
            g = joint.JointGrid.from_json(json_text)
            problems = check_grid(g, joint.widths_from_grid(g), refine=True)
            again = joint.JointGrid.from_json(g.to_json())
            if again.values.tobytes() != g.values.tobytes():
                problems.append("from_json(to_json(g)) changed the values")
            return problems, pair

        return run, check


class Survey(Workload):
    clear = "pass"

    def setup(self):
        # warm numpy's reductions on a closed-form grid; caches are cleared
        # before the first pass
        p = PumpParams(w=10.0, k_p=10.0)
        c = CrystalParams(L=1000.0, k_p=10.0)
        joint.widths_from_grid(joint.evaluate_grid(p, c, phasematch.GAUSSIAN_APPROX, "momentum", "rotated"))
        self.reference = {}

    def ops(self):
        out = []
        for k, pair in enumerate(self.spec["pairs"]):
            c = CrystalParams(L=pair["crystal"]["L"], k_p=pair["k_p"], z0=pair["crystal"]["z0"])
            m = phasematch.PhaseMatchModel(pair["model"])
            for point in pair["points"]:
                p = PumpParams(w=pair["w"], k_p=pair["k_p"], ell_c=point["ell_c"], R=point["R"])
                out.append(self._point(k, p, c, m))
        out.append(self._phase(self.spec["phase"]))
        return out

    def _point(self, k, p, c, m):
        def run():
            res = {}
            for space in ("momentum", "position"):
                axes = joint.default_axes(p, c, m, space, "rotated")
                g = joint.evaluate_grid(p, c, m, space, "rotated", axes)
                res[space] = (g, joint.widths_from_grid(g))
            return res, entanglement.classify(p, c)

        def check(out, h):
            res, rep = out
            problems = []
            h.update(repr(rep).encode())
            for g, widths in res.values():
                problems += check_grid(g, widths, refine=True)
                _hash_grid(h, g, widths)
            # the position grid and product_pm ignore the pump's coherence and
            # curvature; the momentum anti-diagonal width belongs to phase matching
            ref = self.reference.setdefault(k, (res["position"][0].values, rep.product_pm, res["momentum"][1][1]))
            if not np.array_equal(res["position"][0].values, ref[0]):
                problems.append(f"pair {k}: position grid changed with the pump's coherence")
            if rep.product_pm != ref[1]:
                problems.append(f"pair {k}: product_pm changed with the pump's coherence")
            if _rel(res["momentum"][1][1], ref[2]) > WIDTH_TOL:
                problems.append(f"pair {k}: momentum anti-diagonal width moved by more than 1%")
            return problems, k

        return run, check

    def _phase(self, ph):
        x_range, y_range = (0.0, ph["x_max"]), (0.0, ph["y_max"])

        def run():
            cells = entanglement.sweep_phase_diagram(x_range, y_range, ph["nx"], ph["ny"], ph["alpha"])
            return cells, entanglement.sweep_to_csv(cells)

        def check(out, h):
            cells, text = out
            h.update(text.encode())
            problems = []
            alpha = ph["alpha"]
            if len(cells) != ph["nx"] * ph["ny"] or text.count("\n") != len(cells) + 1:
                problems.append("phase diagram: wrong cell or CSV row count")
            b1 = 2.0 / math.sqrt(alpha)
            type1 = sum(cell.y > b1 for cell in cells)
            type2 = sum(cell.y * cell.y < 4.0 / ((alpha + 1.0 / alpha) * (1.0 + 4.0 * cell.x * cell.x)) for cell in cells)
            if type1 != sum(cell.type1 for cell in cells) or type2 != sum(cell.type2 for cell in cells):
                problems.append("phase diagram: region sizes disagree with the witness boundaries")
            if any(cell.type1 and cell.type2 for cell in cells):
                problems.append("phase diagram: witness regions overlap")
            return problems, None

        return run, check


class LabExport(Workload):
    clear = "never"

    def setup(self):
        self.factors = []
        for f in self.spec["factors"]:
            pp, cc = f["pump"], f["crystal"]
            p = PumpParams(w=pp["w"], k_p=pp["k_p"], ell_c=pp["ell_c"], R=pp["R"])
            c = CrystalParams(L=cc["L"], k_p=pp["k_p"], z0=cc["z0"])
            joint.default_axes(p, c, phasematch.EXACT_SINC, f["space"], "lab")
            self.factors.append((p, c, f["space"]))
        self.setup_pairs = set(range(len(self.factors)))
        p, c, space = self.factors[0]
        joint.evaluate_grid(p, c, phasematch.EXACT_SINC, space, "lab", joint.default_axes(
            p, c, phasematch.EXACT_SINC, space, "lab", count=128))

    def ops(self):
        return [self._op(o["factor"], o["count"], o["export"]) for o in self.spec["ops"]]

    def _op(self, f, count, export):
        p, c, space = self.factors[f]
        m = phasematch.EXACT_SINC

        def run():
            axes = joint.default_axes(p, c, m, space, "lab", count=count)
            g = joint.evaluate_grid(p, c, m, space, "lab", axes)
            widths = joint.widths_from_grid(g)
            if not export:
                return g, widths, None
            csv_text = g.to_csv()
            json_text = g.to_json()
            return g, widths, (csv_text, json_text, joint.JointGrid.from_json(json_text))

        def check(out, h):
            g, widths, exported = out
            problems = check_grid(g, widths, refine=False)
            _hash_grid(h, g, widths)
            if exported is not None:
                csv_text, json_text, back = exported
                if back.values.tobytes() != g.values.tobytes():
                    problems.append("from_json(to_json(g)) changed the values")
                if csv_text.count("\n") != count + 3:
                    problems.append("CSV export has the wrong row count")
                h.update(csv_text.encode())
                h.update(json_text.encode())
            return problems, f

        return run, check


class Validate(Workload):
    """One op per pass: the whole ``spdc validate`` battery.  Single checks
    take 5-90 ms, too short to time steadily one by one on a shared host;
    the traced run gives each its own busy_s."""

    clear = "pass"

    def setup(self):
        self.names = sorted(a for a in vars(validation) if a.startswith("check_"))

    def ops(self):
        def check(results, h):
            h.update("".join(f"{r.name} {r.passed} {r.observed!r}\n" for r in results).encode())
            problems = [f"check {r.name} failed: {r.line()}" for r in results if not r.passed]
            if len(results) != len(self.names):
                problems.append(f"run_all ran {len(results)} checks, the module defines {len(self.names)}")
            return problems, None

        return [(validation.run_all, check)]


WORKLOADS = {
    "cold_joint": ColdJoint,
    "survey": Survey,
    "lab_export": LabExport,
    "validate": Validate,
}

