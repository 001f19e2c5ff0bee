"""Joint grids: factorization, moments vs closed forms, serialization,
resolution guard, and the lab fill against the per-cell formula."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    e1_position_radial,
    marginal_of_radial,
    profile_momentum_marginal,
    quad_osc,
    si_position_radial,
)

from spdc_coherence import joint, phasematch
from spdc_coherence.errors import GridTooCoarse, ParameterMismatch, UnknownChoice, ZeroMass
from spdc_coherence.joint import (
    Axis,
    DEFAULT_COUNT,
    JointGrid,
    default_axes,
    evaluate_grid,
    widths_from_grid,
)
from spdc_coherence.numerics import grid_moments
from spdc_coherence.params import CrystalParams, PumpParams, params_dict
from spdc_coherence.phasematch import (
    EXACT_SINC,
    GAUSSIAN_APPROX,
    NonlinearityProfile,
    PhaseMatchModel,
    momentum_radial_density,
    position_radial_density,
    variance_q_minus,
    variance_rho_minus,
)
from spdc_coherence.pump import variance_q_plus, variance_rho_plus

K_P = 10.0
PUMP = PumpParams(w=100.0, k_p=K_P)
PUMP_NARROW = PumpParams(w=10.0, k_p=K_P)
CRYSTAL = CrystalParams(L=1000.0, k_p=K_P)
CRYSTAL_MID = CrystalParams(L=1000.0, k_p=K_P, z0=500.0)
POLED_PAIR = PhaseMatchModel.from_profile(NonlinearityProfile.alternating(2, 500.0))

SQRT2 = math.sqrt(2.0)


def _minus_table(c, m, space):
    """(nodes, values) of the minus factor's table: the nodes span the
    radial density's window, and np.interp returns the table value exactly
    at a node."""
    radial = (momentum_radial_density if space == "momentum" else position_radial_density)(c, m)
    nodes = np.linspace(0.0, radial.half_range, joint._MARGINAL_NODES)
    return nodes, _cached_minus(c, m, space).marginal(nodes)


def _cached_minus(c, m, space):
    """The non-Gaussian minus factor from joint's cache, under its key."""
    return joint._minus_marginal(space, phasematch._minus_key(c, m, space))


def _minus_factor(c, m, space, t):
    """The anti-diagonal 1D marginal that every grid fill samples."""
    return float(_cached_minus(c, m, space).marginal(t))


class TestAxis:
    def test_centers(self):
        ax = Axis(-1.0, 1.0, 8)
        assert ax.step == 0.25
        assert ax.centers[0] == pytest.approx(-0.875)
        assert ax.centers[-1] == pytest.approx(0.875)

    @pytest.mark.parametrize("count", [255, 256])
    def test_symmetric_centers_mirror_exactly(self, count):
        ax = Axis(-0.3, 0.3, count)
        assert np.array_equal(ax.centers, -ax.centers[::-1])

    def test_bad_range(self):
        with pytest.raises(ValueError):
            Axis(1.0, 1.0, 16)

    def test_minimum_count(self):
        with pytest.raises(GridTooCoarse) as exc_info:
            Axis(0.0, 1.0, 7)
        assert exc_info.value.suggested_count == 8
        Axis(0.0, 1.0, 8)  # boundary is legal

    def test_cell_area(self):
        g = JointGrid(space="position", coords="rotated", axis1=Axis(-1.0, 1.0, 8),
                      axis2=Axis(0.0, 4.0, 16), values=np.ones((8, 16)))
        assert g.axis2.centers[-1] == pytest.approx(4.0 - 0.125)
        assert g.cell_area == pytest.approx(0.25 * 0.25)


class TestPointwiseDensities:
    def test_gaussian_product(self):
        # a small lab grid around (q_s, q_i) = (0.004, -0.001), every cell
        # against the product of the two closed-form Gaussians
        p, c = PUMP, CRYSTAL
        axes = (Axis(0.0, 0.008, 8, "q_s_x"), Axis(-0.004, 0.002, 8, "q_i_x"))
        g = evaluate_grid(p, c, GAUSSIAN_APPROX, "momentum", "lab", axes)
        vp = variance_q_plus(p)
        vm = variance_q_minus(c)
        q_s, q_i = g.axis1.centers[:, None], g.axis2.centers[None, :]
        a, b = (q_s + q_i) / SQRT2, (q_s - q_i) / SQRT2
        want = (
            np.exp(-a * a / (2.0 * vp)) / math.sqrt(2.0 * math.pi * vp)
            * np.exp(-b * b / (2.0 * vm)) / math.sqrt(2.0 * math.pi * vm)
        )
        np.testing.assert_allclose(g.values, want, rtol=1e-12, atol=0.0)

    def test_momentum_marginal_against_scipy(self):
        """The tabulated minus marginal vs a brute-force projection of the
        plain-numpy radial density, near the peak and out to the window
        edge, there at marginal nodes: the marginal oscillates in t with a
        period of about 7 node spacings near the edge, so between nodes
        linear interpolation would be tested too."""
        sinc_segments = ((0.0, CRYSTAL.L, 1.0 / CRYSTAL.L),)
        for t, tol in ((0.0, 5e-4), (0.05, 5e-4), (0.1, 5e-4), (0.2, 5e-4), (0.4, 1e-3)):
            want = profile_momentum_marginal(t, K_P, sinc_segments)
            got = _minus_factor(CRYSTAL, EXACT_SINC, "momentum", t)
            assert got == pytest.approx(want, rel=tol)
        segments = ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0))
        for t in (0.0, 0.1, 0.2, 0.4):
            want = profile_momentum_marginal(t, K_P, segments)
            got = _minus_factor(CRYSTAL, POLED_PAIR, "momentum", t)
            assert got == pytest.approx(want, rel=5e-4)
        for model, segments in ((EXACT_SINC, sinc_segments), (POLED_PAIR, segments)):
            nodes, _ = _minus_table(CRYSTAL, model, "momentum")
            for k in (2048, 3072, 3686, 4055, 4096):  # 0.5 to 1 of the window
                t = float(nodes[k])
                want = profile_momentum_marginal(t, K_P, segments)
                got = _minus_factor(CRYSTAL, model, "momentum", t)
                assert got == pytest.approx(want, rel=5e-4)

    def test_position_marginal_against_scipy(self):
        for t in (0.0, 3.0, 10.0, 25.0):
            want = marginal_of_radial(
                lambda r: si_position_radial(r, CRYSTAL.L, K_P), t, 500.0
            )
            got = _minus_factor(CRYSTAL_MID, EXACT_SINC, "position", t)
            assert got == pytest.approx(want, rel=5e-4)
        # a face at z = 0 (exit-face sinc, poled pair) puts a log^2 spike
        # at the origin; quad gets breakpoints down to 1e-6 um to resolve it
        cuts = [0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 500.0, math.inf]
        for model, segments in (
            (EXACT_SINC, ((0.0, CRYSTAL.L, 1.0 / CRYSTAL.L),)),
            (POLED_PAIR, ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0))),
        ):
            density = lambda y: float(e1_position_radial(y, K_P, segments))
            want = 2.0 * sum(quad_osc(density, a, b) for a, b in zip(cuts, cuts[1:]))
            _, vals = _minus_table(CRYSTAL, model, "position")
            got = _minus_factor(CRYSTAL, model, "position", 0.0)
            # observed 1.6e-4 (sinc) and 2.3e-4 (poled pair) of the peak
            assert abs(got - want) <= 3e-4 * float(np.max(vals))

    def test_position_ignores_coherence(self):
        # one lab window (-80 .. 80 um) for every pump
        axes = (Axis(-80.0, 80.0, 64, "rho_s_x"), Axis(-80.0, 80.0, 64, "rho_i_x"))
        want = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "position", "lab", axes).values
        for ell_c in (1.0, 100.0):
            p_partial = PumpParams(w=100.0, k_p=K_P, ell_c=ell_c)
            got = evaluate_grid(p_partial, CRYSTAL, EXACT_SINC, "position", "lab", axes).values
            assert np.array_equal(got, want)

    def test_k_p_mismatch(self):
        other = CrystalParams(L=1000.0, k_p=9.0)
        with pytest.raises(ParameterMismatch, match="k_p"):
            evaluate_grid(PUMP, other, EXACT_SINC, "momentum", "lab")
        # still a ValueError to callers that catch that
        assert issubclass(ParameterMismatch, ValueError)

    def test_correlation_ridge(self):
        # equal positions, the diagonal of a lab grid with equal axes: the
        # diagonal factor at sqrt2 rho times the minus peak
        ax = Axis(-40.0, 40.0, 64, "rho_s_x")
        g = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "position", "lab", (ax, ax))
        rho = ax.centers
        minus_peak = _minus_factor(CRYSTAL, EXACT_SINC, "position", 0.0)
        var_plus = variance_rho_plus(PUMP)
        want = (
            np.exp(-2.0 * rho * rho / (2.0 * var_plus))
            / math.sqrt(2.0 * math.pi * var_plus)
            * minus_peak
        )
        np.testing.assert_allclose(np.diagonal(g.values), want, rtol=1e-12, atol=0.0)


class TestDefaultAxes:
    def test_rotated_labels_and_symmetry(self):
        ax1, ax2 = default_axes(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated")
        assert (ax1.label, ax2.label) == ("q_plus", "q_minus")
        assert ax1.lo == -ax1.hi and ax2.lo == -ax2.hi
        assert ax1.count == DEFAULT_COUNT

    def test_lab_axes_share_range(self):
        ax1, ax2 = default_axes(PUMP_NARROW, CRYSTAL, GAUSSIAN_APPROX, "momentum", "lab")
        assert (ax1.lo, ax1.hi) == (ax2.lo, ax2.hi)
        assert (ax1.label, ax2.label) == ("q_s_x", "q_i_x")

    def test_gaussian_window_is_five_sigma(self):
        ax1, _ = default_axes(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        assert ax1.hi == pytest.approx(5.0 * math.sqrt(variance_q_plus(PUMP)), rel=1e-12)

    def test_count_passthrough(self):
        ax1, ax2 = default_axes(PUMP, CRYSTAL, GAUSSIAN_APPROX, "position", "rotated", count=64)
        assert ax1.count == ax2.count == 64

    def test_bad_space_and_coords(self):
        with pytest.raises(UnknownChoice, match="space 'energy'"):
            default_axes(PUMP, CRYSTAL, EXACT_SINC, "energy", "rotated")
        with pytest.raises(UnknownChoice, match="coords 'cartesian'"):
            default_axes(PUMP, CRYSTAL, EXACT_SINC, "momentum", "cartesian")


class TestEvaluateGrid:
    def test_rotated_is_rank_one(self):
        g = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated")
        v = g.values
        im, jm = np.unravel_index(np.argmax(v), v.shape)
        rebuilt = np.outer(v[:, jm], v[im, :]) / v[im, jm]
        assert np.allclose(v, rebuilt, rtol=1e-12, atol=0.0)

    def test_default_axes_used_when_none(self):
        a = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        axes = default_axes(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        b = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated", axes)
        assert np.array_equal(a.values, b.values)
        assert a.axis1 == b.axis1

    def test_mass_capture_gaussian(self):
        # +-5 sigma windows on both factors
        g = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        assert g.mass >= 0.999

    def test_mass_capture_heavy_tails(self):
        g = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated")
        assert g.mass >= 0.998  # observed 0.998842
        g = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "position", "rotated")
        # exit-face origin spike undersampled by design; see joint docstring
        assert g.mass >= 0.99

    @pytest.mark.parametrize("z0_over_L", [1.5, 3.0, 10.0, 100.0, -1.0, -5.0])
    def test_mass_capture_off_origin_crystal(self, z0_over_L):
        """A crystal wholly on one side of z = 0 spreads wider the further
        it sits, and the position window follows it (observed 0.99837 at
        every placement)."""
        c = CrystalParams(L=1000.0, k_p=K_P, z0=z0_over_L * 1000.0)
        g = evaluate_grid(PUMP_NARROW, c, EXACT_SINC, "position", "rotated")
        assert g.mass >= 0.998

    @pytest.mark.parametrize(
        "space,crystal,model",
        [
            ("momentum", CRYSTAL, EXACT_SINC),
            ("position", CRYSTAL_MID, EXACT_SINC),
            ("position", CRYSTAL, GAUSSIAN_APPROX),
        ],
    )
    def test_mass_stable_under_refinement(self, space, crystal, model):
        """Doubling the counts moves the cell sum by < 1e-4 whenever the
        factors are smooth on the grid scale (all but the exit-face
        position spike)."""
        masses = []
        for count in (256, 512):
            axes = default_axes(PUMP, crystal, model, space, "rotated", count)
            masses.append(evaluate_grid(PUMP, crystal, model, space, "rotated", axes).mass)
        assert abs(masses[1] - masses[0]) < 1e-4

    def test_lab_anticorrelated_momentum(self):
        g = evaluate_grid(PUMP_NARROW, CRYSTAL, EXACT_SINC, "momentum", "lab")
        assert grid_moments(g.values, g.axis1.centers, g.axis2.centers).covar < 0.0

    def test_lab_rotation_identity(self):
        g = evaluate_grid(PUMP_NARROW, CRYSTAL, GAUSSIAN_APPROX, "momentum", "lab")
        m = grid_moments(g.values, g.axis1.centers, g.axis2.centers)
        dp, dm = widths_from_grid(g)
        corr = m.covar / math.sqrt(m.var1 * m.var2)
        want = (dp * dp - dm * dm) / (dp * dp + dm * dm)
        assert abs(corr - want) < 1e-3  # algebraic identity; observed ~1e-16

    def test_resolution_guard(self):
        # q_plus factor: sigma ~ 3.5e-3 for w = 100, so a +-0.05 window
        # needs more than 8 cells
        axes = (Axis(-0.05, 0.05, 8, "q_plus"), Axis(-1.0, 1.0, 256, "q_minus"))
        with pytest.raises(GridTooCoarse) as exc_info:
            evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated", axes)
        need = exc_info.value.suggested_count
        assert need is not None and need > 8
        fixed = (Axis(-0.05, 0.05, need, "q_plus"), axes[1])
        evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated", fixed)

    def test_guard_names_the_axis(self):
        axes = (Axis(-0.05, 0.05, 8, "q_plus"), Axis(-1.0, 1.0, 256, "q_minus"))
        with pytest.raises(GridTooCoarse, match="q_plus"):
            evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated", axes)


class TestWidths:
    def test_coherent_momentum_formulas(self):
        g = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        dp, dm = widths_from_grid(g)
        assert dp == pytest.approx(math.sqrt(1.0 / (8.0 * PUMP.w**2)), rel=0.01)
        assert dm == pytest.approx(math.sqrt(K_P / (2.0 * 0.455 * CRYSTAL.L)), rel=0.01)

    def test_coherent_position_diagonal(self):
        g = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "position", "rotated")
        dp, _ = widths_from_grid(g)
        assert dp == pytest.approx(SQRT2 * PUMP.w, rel=0.01)

    def test_lab_grid_same_widths(self):
        rot = evaluate_grid(PUMP_NARROW, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        lab = evaluate_grid(PUMP_NARROW, CRYSTAL, GAUSSIAN_APPROX, "momentum", "lab")
        for a, b in zip(widths_from_grid(rot), widths_from_grid(lab)):
            assert a == pytest.approx(b, rel=5e-3)

    def test_injected_isotropic_gaussian(self):
        ax = Axis(-4.0, 4.0, 128)
        x = ax.centers
        vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2.0) / (2.0 * math.pi)
        g = JointGrid(space="position", coords="lab", axis1=ax, axis2=ax, values=vals)
        dp, dm = widths_from_grid(g)
        assert dp == pytest.approx(dm, rel=1e-12)

    def test_zero_mass(self):
        ax = Axis(0.0, 1.0, 8)
        g = JointGrid(space="position", coords="lab", axis1=ax, axis2=ax,
                      values=np.zeros((8, 8)))
        with pytest.raises(ZeroMass):
            widths_from_grid(g)


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        g = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated",
                          default_axes(PUMP, CRYSTAL, EXACT_SINC, "momentum", "rotated", 64))
        back = JointGrid.from_json(g.to_json())
        assert np.array_equal(back.values, g.values)
        assert back.axis1 == g.axis1 and back.axis2 == g.axis2
        assert back.pump == g.pump  # includes the inf coherence sentinel
        assert back.crystal == g.crystal
        assert back.model == g.model
        assert back.space == "momentum" and back.coords == "rotated"
        doc = json.loads(g.to_json())
        assert list(doc["pump"]) == ["w", "ell_c", "R", "k_p"]
        assert list(doc["crystal"]) == ["L", "z0", "alpha", "beta", "k_p"]

    def test_json_round_trip_profile_model(self):
        axes = default_axes(PUMP, CRYSTAL, POLED_PAIR, "momentum", "rotated", 64)
        g = evaluate_grid(PUMP, CRYSTAL, POLED_PAIR, "momentum", "rotated", axes)
        text = g.to_json()
        back = JointGrid.from_json(text)
        assert back.model == POLED_PAIR
        assert json.loads(text)["model"] == {
            "kind": "profile", "profile": [[0.0, 500.0, 1.0], [500.0, 1000.0, -1.0]],
        }
        assert back.to_json() == text

    def test_json_metadata_optional(self):
        ax = Axis(-1.0, 1.0, 8, "a")
        g = JointGrid(space="position", coords="lab", axis1=ax, axis2=ax,
                      values=np.ones((8, 8)))
        back = JointGrid.from_json(g.to_json())
        assert back.pump is None and back.crystal is None and back.model is None

    def test_csv_layout(self):
        axes = default_axes(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated", 16)
        g = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated", axes)
        lines = g.to_csv().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("space=momentum" in ln for ln in comments)
        header = lines[len(comments)]
        assert header.startswith("q_plus\\q_minus,")
        cols = np.array([float(v) for v in header.split(",")[1:]])
        assert np.allclose(cols, g.axis2.centers, rtol=1e-8)
        rows = lines[len(comments) + 1:]
        assert len(rows) == 16
        parsed = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        assert np.allclose(parsed, g.values, rtol=1e-8, atol=1e-300)

    @staticmethod
    def _reference_json(g):
        # json.dumps of the whole document, values as a list of floats
        doc = {
            "space": g.space,
            "coords": g.coords,
            "axis1": {"lo": g.axis1.lo, "hi": g.axis1.hi, "count": g.axis1.count, "label": g.axis1.label},
            "axis2": {"lo": g.axis2.lo, "hi": g.axis2.hi, "count": g.axis2.count, "label": g.axis2.label},
            "values": [float(v) for v in g.values.ravel()],
        }
        if g.pump is not None:
            doc["pump"] = params_dict(g.pump)
        if g.crystal is not None:
            doc["crystal"] = params_dict(g.crystal)
        if g.model is not None:
            profile = g.model.profile
            doc["model"] = {
                "kind": g.model.kind,
                "profile": None if profile is None else [list(seg) for seg in profile.segments],
            }
        return json.dumps(doc, indent=1)

    @staticmethod
    def _reference_csv(g):
        # one f-string per number
        lines = [
            f"# joint density, space={g.space}, coords={g.coords}",
            f"# rows: {g.axis1.label or 'axis1'} centres;"
            f" columns: {g.axis2.label or 'axis2'} centres",
        ]
        c2 = ",".join(f"{v:.9g}" for v in g.axis2.centers)
        lines.append(f"{g.axis1.label or 'axis1'}\\{g.axis2.label or 'axis2'},{c2}")
        for center, row in zip(g.axis1.centers, g.values):
            lines.append(f"{center:.9g}," + ",".join(f"{v:.9g}" for v in row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("with_params", [True, False], ids=["params", "bare"])
    def test_serializers_match_reference_bytes(self, with_params):
        """Both exports write exactly the bytes of json.dumps over the whole
        document and of one f-string per number, on awkward values: signed
        zeros side by side, values repeated in cells far apart, and the
        default rotated and lab-coordinate sinc grids."""
        awkward = [0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e16, 2.0**-1074 * 3, 123456789.0, 0.1]
        values = np.resize(np.array(awkward), (8, 12))
        values[0, 0] = values[-1, -1] = 0.7
        values[0, -1] = values[-1, 0] = -0.0
        ax1 = Axis(-1.0 / 3.0, 1e16, 8, 'q "s" \\ x')
        ax2 = Axis(-5e-324, 1e-300, 12, "")
        extra = dict(pump=PUMP, crystal=CRYSTAL, model=POLED_PAIR) if with_params else {}
        g = JointGrid(space="momentum", coords="lab", axis1=ax1, axis2=ax2, values=values, **extra)
        text = g.to_json()
        assert text == self._reference_json(g)
        assert "  -0.0,\n  5e-324" in text and "  0.0,\n  -0.0" in text
        assert g.to_csv() == self._reference_csv(g)
        assert ",0,-0,4.94065646e-324," in g.to_csv()
        sinc = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "position", "rotated")
        assert sinc.to_json() == self._reference_json(sinc)
        assert sinc.to_csv() == self._reference_csv(sinc)
        lab = evaluate_grid(PUMP_NARROW, CRYSTAL, EXACT_SINC, "position", "lab")
        assert lab.to_json() == self._reference_json(lab)
        assert lab.to_csv() == self._reference_csv(lab)

    def test_csv_formats_each_distinct_value_once(self, monkeypatch):
        """to_csv calls _g9 once per distinct value and once per axis centre,
        not once per cell."""
        g = evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, "position", "rotated")
        distinct = np.unique(g.values.view(np.uint64)).size
        assert distinct < 0.3 * g.values.size  # mirror-exact factors repeat values; observed 0.25
        calls = []
        g9 = joint._g9

        def counting(v):
            calls.append(v)
            return g9(v)

        monkeypatch.setattr(joint, "_g9", counting)
        assert g.to_csv() == self._reference_csv(g)
        assert len(calls) <= distinct + g.axis1.count + g.axis2.count

    def test_grid_immutable(self):
        g = evaluate_grid(PUMP, CRYSTAL, GAUSSIAN_APPROX, "momentum", "rotated")
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    def test_shape_validation(self):
        ax = Axis(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            JointGrid(space="position", coords="lab", axis1=ax, axis2=ax,
                      values=np.ones((8, 9)))
        with pytest.raises(ValueError):
            JointGrid(space="position", coords="lab", axis1=ax, axis2=ax,
                      values=-np.ones((8, 8)))

    def test_non_finite_values_rejected(self):
        ax = Axis(0.0, 1.0, 8)
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.ones((8, 8))
            vals[3, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                JointGrid(space="position", coords="lab", axis1=ax, axis2=ax, values=vals)
            vals.setflags(write=False)  # the owned read-only route checks too
            with pytest.raises(ValueError, match="finite"):
                JointGrid(space="position", coords="lab", axis1=ax, axis2=ax, values=vals)

    def test_caller_array_copied(self):
        ax = Axis(0.0, 1.0, 8)
        vals = np.ones((8, 8))
        g = JointGrid(space="position", coords="lab", axis1=ax, axis2=ax, values=vals)
        vals[0, 0] = 5.0
        assert g.values[0, 0] == 1.0
        assert not g.values.flags.writeable
        # a read-only view of a writeable array is copied as well
        base = np.ones((8, 8))
        view = base[:]
        view.setflags(write=False)
        g = JointGrid(space="position", coords="lab", axis1=ax, axis2=ax, values=view)
        base[0, 0] = 5.0
        assert g.values[0, 0] == 1.0
        # a read-only array that owns its data is taken over as it is
        owned = np.ones((8, 8))
        owned.setflags(write=False)
        assert JointGrid(space="position", coords="lab", axis1=ax, axis2=ax, values=owned).values is owned


def _per_cell(g):
    """The lab grid's defining formula, cell by cell from the axis centres."""
    plus, minus = joint._factor_pair(g.pump, g.crystal, g.model, g.space)
    s = g.axis1.centers[:, None]
    i = g.axis2.centers[None, :]
    return plus.marginal((s + i) / SQRT2) * minus.marginal((s - i) / SQRT2)


# default lab routes, each fine enough for its grid guard
LAB_ROUTES = [
    ("momentum", CRYSTAL, EXACT_SINC),
    ("position", CRYSTAL, EXACT_SINC),
    ("position", CRYSTAL_MID, EXACT_SINC),
    ("momentum", CRYSTAL, GAUSSIAN_APPROX),
    ("position", CRYSTAL, GAUSSIAN_APPROX),
]


class TestLabFill:
    @pytest.mark.parametrize("space,crystal,model", LAB_ROUTES[:2])
    def test_matches_per_cell_formula(self, space, crystal, model):
        g = evaluate_grid(PUMP_NARROW, crystal, model, space, "lab")
        want = _per_cell(g)
        assert np.max(np.abs(g.values - want)) <= 1e-14 * want.max()

    def test_unequal_steps_fill_by_rows(self):
        # the centred sinc crystal is the non-Gaussian route whose guard
        # passes at 64 cells
        ax1, ax2 = default_axes(PUMP_NARROW, CRYSTAL_MID, EXACT_SINC, "position", "lab", count=64)
        ax2 = Axis(ax2.lo, ax2.hi, 96, ax2.label)
        assert ax1.step != ax2.step
        g = evaluate_grid(PUMP_NARROW, CRYSTAL_MID, EXACT_SINC, "position", "lab", (ax1, ax2))
        assert g.values.shape == (64, 96)
        assert np.array_equal(g.values, _per_cell(g))

    @pytest.mark.parametrize("space,crystal,model", LAB_ROUTES)
    def test_default_grid_mirror_exact(self, space, crystal, model):
        v = evaluate_grid(PUMP_NARROW, crystal, model, space, "lab").values
        assert np.array_equal(v, v[::-1, ::-1])
        assert np.array_equal(v, v.T)


class TestMinusFactorCache:
    # coherence and curvature sweep at fixed crystal and model
    PUMPS = [
        PumpParams(w=100.0, k_p=K_P),
        PumpParams(w=100.0, k_p=K_P, ell_c=100.0),
        PumpParams(w=100.0, k_p=K_P, ell_c=10.0),
        PumpParams(w=100.0, k_p=K_P, ell_c=100.0, R=2.0e4),
    ]

    def test_one_build_per_space_across_a_pump_sweep(self):
        joint._minus_marginal.cache_clear()
        for space in ("momentum", "position"):
            before = joint._minus_marginal.cache_info().misses
            grids = [evaluate_grid(p, CRYSTAL, EXACT_SINC, space, "rotated") for p in self.PUMPS]
            assert joint._minus_marginal.cache_info().misses - before == 1
            minus = {id(joint._factor_pair(p, CRYSTAL, EXACT_SINC, space)[1]) for p in self.PUMPS}
            assert len(minus) == 1
            if space == "position":
                # blind to the pump's coherence and curvature
                assert len({g.values.tobytes() for g in grids}) == 1

    # the factor sweep: crystals that differ in z0, alpha and L, two models
    SWEEP_CRYSTALS = [
        CRYSTAL,
        CrystalParams(L=1000.0, k_p=K_P, z0=500.0),
        CrystalParams(L=1000.0, k_p=K_P, alpha=0.5),
        CrystalParams(L=2000.0, k_p=K_P),
    ]
    SWEEP_MODELS = [EXACT_SINC, PhaseMatchModel.from_profile(NonlinearityProfile.alternating(32, 31.25))]

    def test_one_build_per_distinct_factor(self):
        """16 lookups over z0, alpha and L: sinc momentum reads (k_p, L), sinc
        position (k_p, L, z0), and the profile none of them, so 2 + 3 + 1 + 1
        factors exist and each is built once."""
        joint._minus_marginal.cache_clear()
        for c in self.SWEEP_CRYSTALS:
            for m in self.SWEEP_MODELS:
                for space in ("momentum", "position"):
                    joint._factor_pair(PUMP, c, m, space)
                    key = phasematch._minus_key(c, m, space)
                    assert all(isinstance(part, (float, NonlinearityProfile)) for part in key)
        info = joint._minus_marginal.cache_info()
        assert (info.hits + info.misses, info.misses) == (16, 7)

    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_cached_factor_matches_a_fresh_build(self, space):
        # at L = 0.1, z0 = 0.7 (not at z0 = 0.3) z0 - (z0 - L) rounds apart
        # from L, so the position norm must come from L itself: the position
        # key holds the momentum key, whose profile is [0, L]
        radial = momentum_radial_density if space == "momentum" else position_radial_density
        small = [CrystalParams(L=0.1, k_p=K_P, z0=z0) for z0 in (0.3, 0.7)]
        for c in self.SWEEP_CRYSTALS + small:
            for m in self.SWEEP_MODELS:
                assert phasematch._minus_key(c, m, space)[:2] == phasematch._minus_key(c, m, "momentum")
                cached = joint._factor_pair(PUMP, c, m, space)[1]
                fresh = joint._factor(radial(c, m))
                t = np.linspace(0.0, 1.2 * fresh.window, 2001)
                assert (cached.width_half, cached.window) == (fresh.width_half, fresh.window)
                assert cached.marginal(t).tobytes() == fresh.marginal(t).tobytes()

    def test_gaussian_factor_is_not_cached(self):
        joint._factor_pair(PUMP, CRYSTAL, EXACT_SINC, "momentum")  # a cache with an entry
        before = joint._minus_marginal.cache_info()
        for c in self.SWEEP_CRYSTALS:
            for space in ("momentum", "position"):
                evaluate_grid(PUMP, c, GAUSSIAN_APPROX, space, "rotated")
        assert joint._minus_marginal.cache_info() == before

    def test_k_p_mismatch_raises_before_any_build(self):
        joint._minus_marginal.cache_clear()
        with pytest.raises(ParameterMismatch, match="k_p"):
            evaluate_grid(PumpParams(w=100.0, k_p=9.0), CRYSTAL, EXACT_SINC, "momentum", "rotated")
        info = joint._minus_marginal.cache_info()
        assert info.misses == 0 and info.currsize == 0

    @pytest.mark.parametrize("space,coords,bad", [
        ("energy", "lab", "space 'energy'"),
        ("momentum", "cartesian", "coords 'cartesian'"),
    ])
    def test_unknown_choice_raises_before_any_build(self, space, coords, bad):
        joint._minus_marginal.cache_clear()
        with pytest.raises(UnknownChoice, match=bad):
            evaluate_grid(PUMP, CRYSTAL, EXACT_SINC, space, coords)
        info = joint._minus_marginal.cache_info()
        assert info.misses == 0 and info.currsize == 0


class TestProfileCuts:
    """A profile is read through the jumps of chi2 alone: the same chi2 cut
    at equal chi2, or padded with chi2 = 0, gives the same default axes and
    the same grid bits in both spaces.  (Its norm, a sum over segments,
    agrees to the bit at these cuts.)"""

    WHOLE = {
        "boxcar": ((0.0, 1000.0, 1.0),),
        "poled_pair": ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0)),
    }
    CUTS = {
        "boxcar": [
            ((0.0, 999.0, 1.0), (999.0, 1000.0, 1.0)),
            ((0.0, 1000.0, 1.0), (1000.0, 1200.0, 0.0)),
            ((-100.0, 0.0, 0.0), (0.0, 1000.0, 1.0)),
        ],
        "poled_pair": [
            ((0.0, 250.0, 1.0), (250.0, 500.0, 1.0), (500.0, 1000.0, -1.0)),
            ((0.0, 500.0, 1.0), (500.0, 1000.0, -1.0), (1000.0, 1200.0, 0.0)),
            ((-100.0, 0.0, 0.0), (0.0, 500.0, 1.0), (500.0, 1000.0, -1.0)),
        ],
    }

    @pytest.mark.parametrize("space", ["momentum", "position"])
    @pytest.mark.parametrize("name", ["boxcar", "poled_pair"])
    def test_recut_profile_gives_the_same_grid(self, name, space):
        whole = PhaseMatchModel.from_profile(NonlinearityProfile(self.WHOLE[name]))
        axes = default_axes(PUMP, CRYSTAL, whole, space, "rotated")
        values = evaluate_grid(PUMP, CRYSTAL, whole, space, "rotated", axes).values
        for segments in self.CUTS[name]:
            cut = PhaseMatchModel.from_profile(NonlinearityProfile(segments))
            assert default_axes(PUMP, CRYSTAL, cut, space, "rotated") == axes
            got = evaluate_grid(PUMP, CRYSTAL, cut, space, "rotated", axes).values
            assert got.tobytes() == values.tobytes()


class TestFactor:
    def test_gaussian_passes_its_marginal_through(self):
        radial = momentum_radial_density(CRYSTAL, GAUSSIAN_APPROX)
        factor = joint._factor(radial)
        assert factor.marginal is radial.marginal
        assert factor.width_half == SQRT2 * radial.sigma
        assert factor.window == radial.half_range

    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_table_reads_zero_beyond_its_window(self, space):
        radial = (momentum_radial_density if space == "momentum" else position_radial_density)(CRYSTAL, EXACT_SINC)
        factor = joint._factor(radial)
        span = radial.half_range
        beyond = np.array([1.0 + 1e-9, 1.5, 10.0]) * span
        assert factor.marginal(beyond).tolist() == [0.0] * 3
        assert factor.marginal(-beyond).tolist() == [0.0] * 3
        assert float(factor.marginal(0.5 * span)) > 0.0


class TestClosedFormMarginal:
    def test_cold_marginal_reads_no_density(self):
        """Every non-Gaussian minus marginal comes from the density's closed
        form: a cold build reads the radial pdf at no point (the transverse
        quadrature would read it 4097 x 4096 times)."""
        for radial_density, crystal, model in (
            (momentum_radial_density, CRYSTAL, EXACT_SINC),
            (momentum_radial_density, CRYSTAL, POLED_PAIR),
            (position_radial_density, CRYSTAL, EXACT_SINC),
            (position_radial_density, CRYSTAL_MID, EXACT_SINC),
            (position_radial_density, CRYSTAL, POLED_PAIR),
        ):
            radial = radial_density(crystal, model)
            reads = []

            def counted(r, pdf=radial.pdf):
                reads.append(np.size(r))
                return pdf(r)

            joint._factor(radial._replace(pdf=counted))
            assert reads == []

    @pytest.mark.parametrize(
        "model,lags",
        [
            (EXACT_SINC, 1),
            (POLED_PAIR, 2),
            (PhaseMatchModel.from_profile(NonlinearityProfile.alternating(16, 62.5)), 16),
            # edges 0, 100, 350, 360, 1000: every one of the 10 gaps differs
            (PhaseMatchModel.from_profile(NonlinearityProfile(
                ((0.0, 100.0, 1.0), (100.0, 350.0, -0.5), (350.0, 360.0, 2.0), (360.0, 1000.0, 1.0)))), 10),
        ],
        ids=["sinc", "poled_pair", "alternating_16", "four_uneven"],
    )
    def test_one_kernel_per_distinct_lag(self, monkeypatch, model, lags):
        """The build costs one Fresnel kernel over the 4097 nodes per
        distinct positive lag between edges of chi2: one for sinc, n for a
        stack of n equal segments, at most n_e (n_e - 1)/2 for n_e edges."""
        calls = []
        kernel = phasematch._ramp_kernel

        def counted(x):
            calls.append(np.size(x))
            return kernel(x)

        monkeypatch.setattr(phasematch, "_ramp_kernel", counted)
        joint._factor(momentum_radial_density(CRYSTAL, model))
        assert calls == [joint._MARGINAL_NODES] * lags

    def test_long_stack_lags_in_small_memory(self):
        """2,000 poled domains have 2,001 edges and 2 M edge pairs, but only
        2,000 distinct lags; collecting them takes memory of the order of
        the edges (holding every pair at once would take 124 MB)."""
        key = NonlinearityProfile.alternating(2000, 0.5)
        tracemalloc.start()
        try:
            lags, weights = phasematch._autocorrelation_lags(key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # observed 0.75 MB
        assert np.allclose(lags, 0.5 * np.arange(1, 2001), rtol=1e-12)
        # R(0) = sum_j w_j lag_j is the profile's energy, sum chi2^2 h
        assert float(np.sum(weights * lags)) == pytest.approx(1000.0, rel=1e-12)

    def test_thin_segment_against_brute_force(self):
        """A 1 um segment beside a 999 um one: the spectrum oscillates with
        period 2 pi / 1000 in dk, which a 4096-node transverse quadrature
        undersamples (3.2e-4 of the peak at t = 0.069 rad/um).  The closed
        form matches a brute-force projection of the oracle density within
        1e-4 of the peak."""
        segments = ((0.0, 999.0, 1.0), (999.0, 1000.0, -1.0))
        model = PhaseMatchModel.from_profile(NonlinearityProfile(segments))
        nodes, vals = _minus_table(CRYSTAL, model, "momentum")
        peak = float(vals[0])
        for k in (0, 1, 2, 3, 5, 16, 256, 4096):
            want = profile_momentum_marginal(float(nodes[k]), K_P, segments)
            assert abs(float(vals[k]) - want) <= 1e-4 * peak


    @pytest.mark.parametrize(
        "crystal,model",
        [(CRYSTAL, EXACT_SINC), (CRYSTAL_MID, EXACT_SINC), (CRYSTAL, POLED_PAIR)],
        ids=["exit_face", "centred", "poled_pair"],
    )
    def test_position_table_against_brute_force(self, crystal, model):
        """The closed-form projection of the position table's interpolant
        matches a 2^21-node midpoint projection of the same pdf within 1e-9
        of the peak (observed below 1e-11)."""
        radial = position_radial_density(crystal, model)
        nodes, vals = _minus_table(crystal, model, "position")
        peak = float(np.max(vals))
        n = 2**21
        for k in (16, 256, 2048, 4000):
            t = float(nodes[k])
            # the pdf drops to zero at the table's last node
            h = math.sqrt(radial.half_range**2 - t * t) / n
            y = (np.arange(n) + 0.5) * h
            want = 2.0 * h * float(np.sum(radial.pdf(np.hypot(t, y))))
            assert abs(float(vals[k]) - want) <= 1e-9 * peak
