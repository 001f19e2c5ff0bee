"""Witness products, the phase diagram, and their closed-form boundaries."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BOUNDARY_TYPE1, BOUNDARY_TYPE2

from spdc_coherence import entanglement
from spdc_coherence.entanglement import (
    ANTI,
    CORRELATED,
    NONE,
    PhaseDiagram,
    classify,
    classify_xy,
    product_mp,
    product_pm,
    sweep_phase_diagram,
    sweep_to_csv,
)
from spdc_coherence.errors import NonPositiveParameter, ParameterMismatch
from spdc_coherence.joint import evaluate_grid, widths_from_grid
from spdc_coherence.params import CrystalParams, PumpParams
from spdc_coherence.phasematch import GAUSSIAN_APPROX, variance_q_minus, variance_rho_minus
from spdc_coherence.pump import variance_q_plus, variance_rho_plus

K_P = 10.0
ALPHA = 0.455


def _cfg(w=100.0, ell_c=math.inf, R=math.inf, L=1000.0, alpha=ALPHA):
    return PumpParams(w=w, k_p=K_P, ell_c=ell_c, R=R), CrystalParams(L=L, k_p=K_P, alpha=alpha)


class TestProducts:
    def test_pm_closed_form(self):
        p, c = _cfg()
        assert product_pm(p, c) == pytest.approx(
            p.w * math.sqrt(K_P / (ALPHA * c.L)), rel=1e-14
        )

    def test_mp_closed_form(self):
        p, c = _cfg(ell_c=20.0, R=5e4)
        var_rho = c.L * (ALPHA + 1.0 / ALPHA) / (2.0 * K_P)
        var_q = (
            1.0 + 4.0 * ((p.w**2 * K_P / p.R) ** 2 + (p.w / p.ell_c) ** 2)
        ) / (8.0 * p.w**2)
        assert product_mp(p, c) == pytest.approx(math.sqrt(var_rho * var_q), rel=1e-14)

    def test_pm_exactly_coherence_free(self):
        c = CrystalParams(L=1000.0, k_p=K_P)
        base = product_pm(PumpParams(w=100.0, k_p=K_P), c)
        for ell_c in (1.0, 100.0, 10000.0, math.inf):
            for R in (math.inf, 3e4, -3e4):
                assert product_pm(PumpParams(w=100.0, k_p=K_P, ell_c=ell_c, R=R), c) == base

    def test_pm_against_grid_moments(self):
        # same product through numerical widths of the Gaussian-model grids
        p, c = _cfg()
        pos = evaluate_grid(p, c, GAUSSIAN_APPROX, "position", "rotated")
        mom = evaluate_grid(p, c, GAUSSIAN_APPROX, "momentum", "rotated")
        dp_pos, _ = widths_from_grid(pos)
        _, dm_mom = widths_from_grid(mom)
        assert dp_pos * dm_mom == pytest.approx(product_pm(p, c), rel=0.01)

    def test_product_identity_coherent(self):
        p, c = _cfg()
        want = math.sqrt(1.0 + ALPHA**-2) / 4.0
        assert product_pm(p, c) * product_mp(p, c) == pytest.approx(want, rel=1e-12)

    def test_coherent_diagonal_minimum_uncertainty(self):
        from spdc_coherence.pump import variance_q_plus, variance_rho_plus

        for w in (0.5, 10.0, 137.0, 2e4):
            p = PumpParams(w=w, k_p=K_P)
            assert abs(math.sqrt(variance_rho_plus(p) * variance_q_plus(p)) - 0.5) < 1e-15

    @given(
        w=st.floats(min_value=0.1, max_value=1e3),
        ell_c=st.one_of(st.just(math.inf), st.floats(min_value=0.1, max_value=1e6)),
        R=st.one_of(st.just(math.inf), st.floats(min_value=1e2, max_value=1e8),
                    st.floats(min_value=-1e8, max_value=-1e2)),
        L=st.floats(min_value=1.0, max_value=1e5),
        alpha=st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_product_identity_general(self, w, ell_c, R, L, alpha):
        p = PumpParams(w=w, k_p=K_P, ell_c=ell_c, R=R)
        c = CrystalParams(L=L, k_p=K_P, alpha=alpha)
        curv = 0.0 if math.isinf(R) else (w * w * K_P / R) ** 2
        coh = 0.0 if math.isinf(ell_c) else (w / ell_c) ** 2
        want = math.sqrt((1.0 + alpha**-2) * (1.0 + 4.0 * curv + 4.0 * coh)) / 4.0
        assert product_pm(p, c) * product_mp(p, c) == pytest.approx(want, rel=1e-12)


class TestClassify:
    def test_report_consistency(self):
        p, c = _cfg(w=5.0, L=10000.0)
        rep = classify(p, c)
        assert rep.type1 == (rep.product_pm < 0.5)
        assert rep.type2 == (rep.product_mp < 0.5)

    def test_validates_input(self):
        with pytest.raises(NonPositiveParameter):
            classify(PumpParams(w=-1.0, k_p=K_P), CrystalParams(L=100.0, k_p=K_P))

    def test_k_p_mismatch(self):
        # the pair that evaluate_grid refuses gets no witness either
        p, c = PumpParams(w=100.0, k_p=10.0), CrystalParams(L=1000.0, k_p=20.0)
        for f in (classify, product_pm, product_mp):
            with pytest.raises(ParameterMismatch, match="k_p"):
                f(p, c)

    def test_momentum_sense_flip(self):
        c = CrystalParams(L=1000.0, k_p=K_P)
        coherent = classify(PumpParams(w=100.0, k_p=K_P), c)
        assert coherent.correlation_momentum == ANTI
        incoherent = classify(PumpParams(w=100.0, k_p=K_P, ell_c=5.0), c)
        assert incoherent.correlation_momentum == CORRELATED

    def test_equal_widths_have_no_sense(self):
        # var_q_plus = (1 + 4 w^2/ell_c^2)/(8 w^2) and var_q_minus =
        # k_p/(2 alpha L) are both exactly 1 here
        p = PumpParams(w=0.5, k_p=8.0, ell_c=1.0)
        c = CrystalParams(L=8.0, k_p=8.0, alpha=0.5)
        assert classify(p, c).correlation_momentum == NONE

    def test_report_is_a_named_tuple(self):
        rep = classify(*_cfg(w=5.0, L=10000.0))
        assert tuple(rep) == tuple(rep._asdict().values())
        assert list(rep._asdict()) == [
            "variance_rho_plus", "variance_q_plus", "variance_rho_minus", "variance_q_minus",
            "product_pm", "product_mp", "type1", "type2",
            "correlation_position", "correlation_momentum",
        ]
        assert rep._replace(type1=not rep.type1) != rep

    def test_one_evaluation_per_report(self, monkeypatch):
        """classify checks k_p once and calls each variance function once,
        in the order the report holds them."""
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        names = ["_require_same_k_p", "variance_rho_plus", "variance_q_plus",
                 "variance_rho_minus", "variance_q_minus"]
        for name in names:
            monkeypatch.setattr(entanglement, name, counted(name, getattr(entanglement, name)))
        classify(*_cfg(w=5.0, ell_c=20.0, L=10000.0))
        assert calls == names

    def test_products_read_the_report(self):
        """On a seeded sweep, product_pm and product_mp are classify's fields
        and its variances are the variance functions, bit for bit."""
        rng = random.Random(20261020)
        for _ in range(200):
            w = 10.0 ** rng.uniform(-1.0, 3.0)
            ell_c = math.inf if rng.random() < 0.3 else w * 10.0 ** rng.uniform(-2.0, 2.0)
            R = math.inf if rng.random() < 0.5 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(2.0, 6.0)
            p, c = _cfg(w=w, ell_c=ell_c, R=R, L=10.0 ** rng.uniform(1.0, 5.0), alpha=rng.uniform(0.2, 2.0))
            rep = classify(p, c)
            assert product_pm(p, c).hex() == rep.product_pm.hex()
            assert product_mp(p, c).hex() == rep.product_mp.hex()
            assert [v.hex() for v in rep[:4]] == [
                variance_rho_plus(p).hex(), variance_q_plus(p).hex(),
                variance_rho_minus(c).hex(), variance_q_minus(c).hex(),
            ]

    @pytest.mark.parametrize("pump, crystal, named", [
        ({"w": 1e-160}, {}, "variance_q_plus = inf,"),         # 1 / (8 w^2) overflows
        ({"w": 1e-100}, {"L": 1e300}, "product_pm = 0.0,"),   # rho_plus * q_minus underflows
        ({"w": 1e-300}, {}, "variance_rho_plus = 0.0,"),       # 2 w^2 underflows, and q_plus divides by it
        ({"ell_c": 1e160}, {}, "variance_q_plus: Numerical result out of range"),  # ell_c**2 raises
    ], ids=["1e-160-1000.0-variance_q_plus", "1e-100-1e+300-product_pm", "w_1e-300", "ell_c_1e160"])
    def test_out_of_range_is_refused(self, pump, crystal, named):
        """The first number out of range, in field order, is named, also when its float arithmetic raised."""
        with pytest.raises(FloatingPointError, match=f"^{named}"):
            classify(PumpParams(k_p=K_P, **{"w": 10.0, **pump}), CrystalParams(k_p=K_P, **{"L": 1000.0, **crystal}))

    def test_enums_match_grid_orderings(self):
        """classify's correlation senses agree with numerical width orderings
        on the corresponding grids, 20 seeded parameter draws."""
        rng = random.Random(20260823)
        for _ in range(20):
            w = 10.0 ** rng.uniform(0.7, 2.5)
            L = 10.0 ** rng.uniform(1.7, 4.3)
            ell_c = math.inf if rng.random() < 0.3 else w * 10.0 ** rng.uniform(-1.0, 2.0)
            p = PumpParams(w=w, k_p=K_P, ell_c=ell_c)
            c = CrystalParams(L=L, k_p=K_P)
            rep = classify(p, c)
            for space, sense in (
                ("position", rep.correlation_position),
                ("momentum", rep.correlation_momentum),
            ):
                dp, dm = widths_from_grid(evaluate_grid(p, c, GAUSSIAN_APPROX, space, "rotated"))
                want = CORRELATED if dm < dp else ANTI
                assert sense == want, f"w={w:.3g} L={L:.3g} ell_c={ell_c:.3g} {space}"


class TestClassifyXY:
    def test_domain(self):
        nan, inf = math.nan, math.inf
        for x, y, alpha in ((-0.1, 1.0, 0.455), (0.0, 0.0, 0.455), (0.0, 1.0, 0.0),
                            (nan, 1.0, 0.455), (1.0, nan, 0.455), (1.0, 1.0, inf), (1.0, 1.0, nan),
                            (inf, 1.0, 0.455), (1.0, inf, 0.455)):
            with pytest.raises(NonPositiveParameter):
                classify_xy(x, y, alpha)

    def test_strict_boundary(self):
        # sitting exactly on the type1 boundary witnesses nothing
        y_star = 2.0 / math.sqrt(ALPHA)
        assert not classify_xy(0.0, y_star, ALPHA).type1
        assert classify_xy(0.0, y_star * (1.0 + 1e-12), ALPHA).type1

    def test_labels(self):
        assert classify_xy(0.0, 3.5, ALPHA).classification == "type1_antipos_corrmom"
        assert classify_xy(0.0, 0.5, ALPHA).classification == "type2_pos_antimom"
        assert classify_xy(2.0, 2.0, ALPHA).classification == "none"

    def test_type2_shrinks_with_incoherence(self):
        y = 1.0
        assert classify_xy(0.0, y, ALPHA).type2
        assert not classify_xy(2.0, y, ALPHA).type2

    @given(
        x=st.floats(min_value=0.0, max_value=20.0),
        y=st.floats(min_value=1e-3, max_value=20.0),
        alpha=st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=300)
    def test_regions_disjoint(self, x, y, alpha):
        cell = classify_xy(x, y, alpha)  # raises internally on overlap
        assert not (cell.type1 and cell.type2)


class TestSweep:
    def test_row_major_centres(self):
        cells = sweep_phase_diagram((0.0, 1.0), (0.0, 2.0), 4, 5, ALPHA)
        assert len(cells) == 20
        assert cells.x.tolist() == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert cells.y.tolist() == pytest.approx([0.2, 0.6, 1.0, 1.4, 1.8])
        # iteration walks y within each x block
        assert [(c.x, c.y) for c in cells][4:6] == [(cells.x[0], cells.y[4]), (cells.x[1], cells.y[0])]

    def test_matches_predicate_everywhere(self):
        cells = sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 60, 80, ALPHA)
        x, y = cells.x[:, None], cells.y[None, :]
        type1 = np.broadcast_to(y > BOUNDARY_TYPE1, cells.type1.shape)
        type2 = y * y < 4.0 / ((ALPHA + 1.0 / ALPHA) * (1.0 + 4.0 * x**2))
        assert np.array_equal(cells.type1, type1) and np.array_equal(cells.type2, type2)
        assert not (cells.type1 & cells.type2).any()
        # the array sweep equals the scalar route cell by cell, centres included
        for nx, ny in ((60, 80), (300, 400)):
            cells = sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), nx, ny, ALPHA)
            xs, ys, type1, type2 = cells.x.tolist(), cells.y.tolist(), cells.type1.tolist(), cells.type2.tolist()
            dx, dy = 3.0 / nx, 4.0 / ny
            for i in range(nx):
                want = [classify_xy((i + 0.5) * dx, (j + 0.5) * dy, ALPHA)[:4] for j in range(ny)]
                assert list(zip([xs[i]] * ny, ys, type1[i], type2[i])) == want

    def test_type1_boundary_bracketed(self):
        cells = sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 6, 80, ALPHA)
        for x in {c.x for c in cells}:
            column = sorted((c for c in cells if c.x == x), key=lambda c: c.y)
            flips = [i for i in range(1, len(column)) if column[i].type1 != column[i - 1].type1]
            assert len(flips) == 1
            i = flips[0]
            assert column[i - 1].y < BOUNDARY_TYPE1 < column[i].y

    def test_type2_boundary_at_coherent_edge(self):
        cells = sweep_phase_diagram((0.0, 0.002), (0.0, 4.0), 1, 400, ALPHA)
        ys_type2 = [c.y for c in cells if c.type2]
        x = float(cells.x[0])
        boundary = 2.0 / math.sqrt((ALPHA + 1.0 / ALPHA) * (1.0 + 4.0 * x * x))
        assert abs(boundary - BOUNDARY_TYPE2) < 1e-5  # x is nearly zero here
        assert max(ys_type2) < boundary < max(ys_type2) + 0.01

    def test_range_validation(self):
        inf, nan = math.inf, math.nan
        for x_range, y_range, alpha, name in (
            ((1.0, 1.0), (0.0, 4.0), 0.455, "range"),
            ((0.0, inf), (0.0, 1.0), 0.455, "range"),
            ((0.0, 1.0), (0.0, inf), 0.455, "range"),
            ((-inf, 1.0), (0.0, 1.0), 0.455, "range"),
            ((0.0, nan), (0.0, 1.0), 0.455, "range"),
            ((0.0, 1.0), (0.0, 1.0), inf, "alpha"),
            ((0.0, 1.0), (0.0, 1.0), nan, "alpha"),
        ):
            with pytest.raises(NonPositiveParameter, match=name):
                sweep_phase_diagram(x_range, y_range, 4, 4, alpha)
        # a count must be an integer: 2.5 used to give 3 columns, the last
        # centred on the range's upper end, and NaN blamed x, y and alpha
        for nx, ny in (
            (0, 10), (10, 0), (-1, 10), (2.5, 10), (10, 2.5), (4.0, 4), (nan, 10), (10, inf), ("4", 4), (None, 4),
        ):
            with pytest.raises(NonPositiveParameter, match="count"):
                sweep_phase_diagram((0.0, 1.0), (0.0, 1.0), nx, ny, ALPHA)
        assert len(sweep_phase_diagram((0.0, 1.0), (0.0, 1.0), np.int64(3), 2, ALPHA)) == 6


class TestPhaseDiagram:
    @staticmethod
    def _sweep():
        return sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 6, 8, ALPHA)

    def test_read_only_columns(self):
        diagram = self._sweep()
        shapes = [getattr(diagram, name).shape for name in ("x", "y", "type1", "type2")]
        assert shapes == [(6,), (8,), (6, 8), (6, 8)]
        for name in ("x", "y", "type1", "type2"):
            col = getattr(diagram, name)
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = col[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(diagram, name, col)
        # built from caller arrays, it keeps its own copies
        x, y = np.array([0.5, 1.5]), np.array([1.0])
        mask = np.zeros((2, 1), bool)
        made = PhaseDiagram(x, y, mask, mask)
        x[0], mask[0, 0] = 9.0, True
        assert made.x.tolist() == [0.5, 1.5] and not made.type1.any() and not made.type2.any()
        assert x.flags.writeable and mask.flags.writeable

    def test_shape_and_overlap_checked(self):
        x, y = np.array([0.5, 1.5]), np.array([1.0, 2.0, 3.0])
        mask = np.zeros((2, 3), bool)
        PhaseDiagram(x, y, mask, mask)
        both = mask.copy()
        both[1, 2] = True
        for bad in (
            (y, x, mask, mask), (x, y, mask.T, mask), (x, y, mask, mask[:, :2]), (x[:, None], y, mask, mask),
            (x, y, both, both),
        ):
            with pytest.raises(ValueError):
                PhaseDiagram(*bad)


class TestSweepCsv:
    @staticmethod
    def _reference_csv(cells):
        # one f-string per row
        lines = ["x,y,type1,type2,classification"]
        for cell in cells:
            lines.append(
                f"{cell.x:.9g},{cell.y:.9g},{int(cell.type1)},{int(cell.type2)},{cell.classification}"
            )
        return "\n".join(lines) + "\n"

    def test_matches_reference_bytes(self):
        cells = sweep_phase_diagram((0.0, 3.0), (0.0, 4.0), 300, 400, ALPHA)
        assert sweep_to_csv(cells) == self._reference_csv(cells)
        y1 = 2.0 / math.sqrt(ALPHA)
        xs, ys = [0.0, -0.0, 1.0 / 3.0, 1e16], [0.5, 5e-324, y1 + 1.0, 1.0]
        verdicts = [[classify_xy(x, y, ALPHA) for y in ys] for x in xs]
        hand = PhaseDiagram(
            np.array(xs), np.array(ys),
            [[c.type1 for c in row] for row in verdicts], [[c.type2 for c in row] for row in verdicts],
        )
        assert list(hand) == [cell for row in verdicts for cell in row]
        text = sweep_to_csv(hand)
        assert text == self._reference_csv(hand)
        lines = text.splitlines()
        assert [lines[1], lines[5]] == ["0,0.5,0,1,type2_pos_antimom", "-0,0.5,0,1,type2_pos_antimom"]
        for shape in ((0, 0), (0, 3), (3, 0)):
            empty = PhaseDiagram(np.zeros(shape[0]), np.zeros(shape[1]), np.zeros(shape, bool), np.zeros(shape, bool))
            assert sweep_to_csv(empty) == "x,y,type1,type2,classification\n"

    def test_format(self):
        cells = sweep_phase_diagram((0.0, 1.0), (0.0, 1.0), 3, 2, ALPHA)
        lines = sweep_to_csv(cells).splitlines()
        assert lines[0] == "x,y,type1,type2,classification"
        assert len(lines) == 7
        allowed = {"type1_antipos_corrmom", "type2_pos_antimom", "none"}
        for line in lines[1:]:
            x, y, t1, t2, label = line.split(",")
            float(x), float(y)
            assert t1 in ("0", "1") and t2 in ("0", "1")
            assert label in allowed
