"""Config parsing, validation, and the serialize/parse round trip."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdc_coherence.errors import NonPositiveParameter, ParseError
from spdc_coherence.params import (
    CrystalParams,
    PumpParams,
    load_params,
    read_config,
    serialize_params,
)

MINIMAL = "pump.w = 10\npump.k_p = 10\ncrystal.L = 1000\n"


class TestReadConfig:
    def test_minimal_defaults(self):
        p, c = read_config(MINIMAL)
        assert p == PumpParams(w=10.0, k_p=10.0, ell_c=math.inf, R=math.inf)
        assert c.L == 1000.0
        assert c.z0 == 1000.0  # exit face defaults to L
        assert c.alpha == 0.455
        assert c.beta == 1.0

    def test_crystal_inherits_pump_k_p(self):
        _, c = read_config(MINIMAL)
        assert c.k_p == 10.0

    def test_crystal_k_p_is_not_a_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            read_config(MINIMAL + "crystal.k_p = 5\n")

    def test_comments_and_blanks(self):
        text = "# header\n\npump.w = 10  # width\n pump.k_p=10\ncrystal.L = 1000\n"
        p, _ = read_config(text)
        assert p.w == 10.0

    def test_inf_any_case(self):
        for token in ("inf", "INF", "Inf"):
            p, _ = read_config(MINIMAL + f"pump.ell_c = {token}\n")
            assert p.ell_c == math.inf

    def test_all_keys(self):
        text = (
            "pump.w = 10\npump.ell_c = 55\npump.R = -2e4\npump.k_p = 9.5\n"
            "crystal.L = 800\ncrystal.z0 = 400\ncrystal.alpha = 0.41\ncrystal.beta = 1\n"
        )
        p, c = read_config(text)
        assert p == PumpParams(w=10.0, k_p=9.5, ell_c=55.0, R=-2e4)
        assert c == CrystalParams(L=800.0, k_p=9.5, z0=400.0, alpha=0.41, beta=1.0)


class TestParseDiagnostics:
    def test_unknown_key_line(self):
        with pytest.raises(ParseError, match=r":2:.*'pump\.width'"):
            read_config("pump.w = 10\npump.width = 3\n")

    def test_duplicate_key_mentions_first_line(self):
        with pytest.raises(ParseError, match=r":3:.*first on line 1"):
            read_config("pump.w = 10\npump.k_p = 10\npump.w = 11\n")

    def test_missing_required(self):
        with pytest.raises(ParseError, match="missing required key"):
            read_config("pump.w = 10\npump.k_p = 10\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match=r":1:.*'ten'"):
            read_config("pump.w = ten\n")

    def test_nan_rejected(self):
        with pytest.raises(ParseError, match="nan"):
            read_config(MINIMAL + "pump.R = nan\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match=r":2:"):
            read_config("pump.w = 10\njust words\n")

    def test_source_in_message(self):
        with pytest.raises(ParseError, match=r"myfile\.cfg:1:"):
            read_config("bad line", source="myfile.cfg")


class TestValidation:
    def test_pump_positivity(self):
        for bad in (dict(w=0.0, k_p=10.0), dict(w=10.0, k_p=-1.0), dict(w=math.inf, k_p=10.0)):
            with pytest.raises(NonPositiveParameter):
                PumpParams(**bad)

    def test_pump_ell_c(self):
        with pytest.raises(NonPositiveParameter) as exc_info:
            PumpParams(w=10.0, k_p=10.0, ell_c=-5.0)
        assert exc_info.value.name == "ell_c"
        PumpParams(w=10.0, k_p=10.0, ell_c=math.inf)  # inf fine

    def test_pump_curvature(self):
        # zero radius is degenerate; both signs of a finite radius are legal
        with pytest.raises(NonPositiveParameter):
            PumpParams(w=10.0, k_p=10.0, R=0.0)
        assert PumpParams(w=10.0, k_p=10.0, R=-3e4).R == -3e4

    def test_negative_inf_curvature_folds(self):
        out = PumpParams(w=10.0, k_p=10.0, R=-math.inf)
        assert out.R == math.inf

    def test_crystal(self):
        for bad in (dict(L=0.0, k_p=10.0), dict(L=100.0, k_p=10.0, alpha=0.0),
                    dict(L=100.0, k_p=10.0, beta=-1.0),
                    dict(L=100.0, k_p=10.0, beta=2.0),
                    dict(L=100.0, k_p=10.0, z0=math.inf)):
            with pytest.raises(NonPositiveParameter):
                CrystalParams(**bad)
        CrystalParams(L=100.0, k_p=10.0, z0=-50.0)  # negative position is fine

    def test_entrance_face(self):
        # z0 - L must be finite and below z0: L may not vanish next to z0
        for L, z0 in ((1000.0, 1e300), (1000.0, -1e300), (1e308, -1e308)):
            with pytest.raises(NonPositiveParameter) as exc_info:
                CrystalParams(L=L, k_p=10.0, z0=z0)
            assert exc_info.value.name == "z0"
        CrystalParams(L=1e300, k_p=10.0)  # z0 = L: the entrance face sits at 0


class TestRoundTrip:
    def test_identity(self):
        p, c = read_config(MINIMAL + "pump.ell_c = 123.5\ncrystal.alpha = 0.47\n")
        p2, c2 = read_config(serialize_params(p, c))
        assert p2 == p
        assert c2 == c

    def test_inf_survives(self):
        p, c = read_config(MINIMAL)
        text = serialize_params(p, c)
        assert "inf" in text
        p2, _ = read_config(text)
        assert p2.ell_c == math.inf and p2.R == math.inf

    @given(
        w=st.floats(min_value=1e-3, max_value=1e5),
        k_p=st.floats(min_value=1e-3, max_value=1e3),
        ell_c=st.one_of(st.just(math.inf), st.floats(min_value=1e-3, max_value=1e6)),
        R=st.one_of(st.just(math.inf), st.floats(min_value=1e2, max_value=1e8),
                    st.floats(min_value=-1e8, max_value=-1e2)),
        L=st.floats(min_value=1e-2, max_value=1e6),
        z0=st.floats(min_value=-1e4, max_value=1e6),
        alpha=st.floats(min_value=1e-2, max_value=10.0),
    )
    def test_round_trip_property(self, w, k_p, ell_c, R, L, z0, alpha):
        p = PumpParams(w=w, k_p=k_p, ell_c=ell_c, R=R)
        c = CrystalParams(L=L, k_p=k_p, z0=z0, alpha=alpha)
        p2, c2 = read_config(serialize_params(p, c))
        assert p2 == p
        assert c2 == c


def test_load_params(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    p, c = load_params(path)
    assert p.w == 10.0 and c.L == 1000.0
    # file name lands in the diagnostics
    bad = tmp_path / "bad.cfg"
    bad.write_text("pump.w = \n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad.cfg"):
        load_params(bad)


def test_load_params_skips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeff" + MINIMAL, encoding="utf-8")
    p, c = load_params(path)
    assert p.w == 10.0 and c.L == 1000.0


def test_example_config_parses():
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "example.cfg"
    p, c = load_params(cfg)
    assert p.k_p == c.k_p
