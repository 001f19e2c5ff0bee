"""Special functions and grid machinery against scipy and closed forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SI_AT_1, SI_AT_PI, gaussian_2d
from scipy import integrate, special

from spdc_coherence import numerics
from spdc_coherence.errors import (
    GridTooCoarse,
    NegativeArgument,
    NonPositiveParameter,
    NoSignChange,
    ZeroMass,
)
from spdc_coherence.numerics import (
    RadialGrid,
    _format_distinct,
    bessel_j0,
    exp1_i,
    find_root,
    fresnel,
    gaussian_radial,
    grid_moments,
    hankel0,
    sine_integral,
    sinc,
)


class TestSinc:
    def test_matches_numpy(self):
        x = np.linspace(-40.0, 40.0, 1601)
        assert np.max(np.abs(sinc(x) - np.sinc(x / math.pi))) < 1e-15

    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0
        # both sides of the series/ratio handoff agree with numpy
        for x in (0.999e-4, 1.001e-4):
            assert abs(sinc(x) - np.sinc(x / math.pi)) < 1e-14

    def test_scalar_in_scalar_out(self):
        out = sinc(1.3)
        assert isinstance(out, float)

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_even_and_bounded(self, x):
        assert sinc(x) == sinc(-x)
        assert abs(sinc(x)) <= 1.0


# Si(x) as float.hex() pairs, the values of an earlier scalar series and
# continued-fraction route kept as reference data; both sides of the x = 4
# split
SI_GOLDEN = [
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.56e1fc2f8f359p-997', '0x1.56e1fc2f8f359p-997'),
    ('0x1.12e0be826d695p-30', '0x1.12e0be826d695p-30'),
    ('0x1.0624dd2f1a9fcp-10', '0x1.0624dc3ac4a19p-10'),
    ('0x1.999999999999ap-4', '0x1.995f5cfe05b52p-4'),
    ('0x1.0000000000000p-1', '0x1.f8f126a7a3cfbp-2'),
    ('0x1.0000000000000p+0', '0x1.e465000d0d798p-1'),
    ('0x1.8000000000000p+0', '0x1.531e75bbef1dfp+0'),
    ('0x1.0000000000000p+1', '0x1.9afc5847f10b6p+0'),
    ('0x1.921fb54442d18p+1', '0x1.da188bf083edbp+0'),
    ('0x1.c000000000000p+1', '0x1.d547b4c4bcc7ap+0'),
    ('0x1.f333333333333p+1', '0x1.c6c8cb0c6c3edp+0'),
    ('0x1.fffff79c842fap+1', '0x1.c2199d021ef7dp+0'),
    ('0x1.0000000000000p+2', '0x1.c21999d582bf0p+0'),
    ('0x1.0000000000001p+2', '0x1.c21999d582bedp+0'),
    ('0x1.00000431bde83p+2', '0x1.c21996a8e6657p+0'),
    ('0x1.0666666666666p+2', '0x1.bd1e4d63e91c3p+0'),
    ('0x1.2000000000000p+2', '0x1.a775bf06c0309p+0'),
    ('0x1.4000000000000p+2', '0x1.8cc84b4816004p+0'),
    ('0x1.9000000000000p+2', '0x1.6b11bea9469acp+0'),
    ('0x1.0000000000000p+3', '0x1.92fde85506871p+0'),
    ('0x1.4000000000000p+3', '0x1.a88977ca9201fp+0'),
    ('0x1.14ccccccccccdp+4', '0x1.92a68fd76828cp+0'),
    ('0x1.f000000000000p+4', '0x1.8ab13e9b3a468p+0'),
    ('0x1.0200000000000p+6', '0x1.9272c35486da4p+0'),
    ('0x1.9000000000000p+6', '0x1.8fee0219444edp+0'),
    ('0x1.0100000000000p+8', '0x1.914f5b6e57e0fp+0'),
    ('0x1.f3f3333333333p+9', '0x1.91f5925d87827p+0'),
    ('0x1.34a0000000000p+10', '0x1.925439865a769p+0'),
    ('0x1.7700000000000p+11', '0x1.92350544654f3p+0'),
    ('0x1.f400000000000p+11', '0x1.922bab9a382a0p+0'),
    ('0x1.f3fc000000000p+12', '0x1.921d29e26d648p+0'),
]


class TestSineIntegral:
    def test_against_scipy(self):
        xs = np.concatenate(
            [np.linspace(0.0, 3.9, 40), np.linspace(3.9, 4.1, 41), np.geomspace(4.1, 500.0, 60)]
        )
        worst = max(abs(sine_integral(float(x)) - special.sici(x)[0]) for x in xs)
        assert worst < 1e-10  # observed ~9e-16

    def test_frozen_values(self):
        assert sine_integral(0.0) == 0.0
        assert abs(sine_integral(1.0) - SI_AT_1) < 1e-13
        assert abs(sine_integral(math.pi) - SI_AT_PI) < 1e-13

    def test_split_point_continuity(self):
        # power series below 4, continued fraction above
        assert abs(sine_integral(4.0 - 1e-9) - sine_integral(4.0 + 1e-9)) < 1e-8

    def test_array_shape(self):
        xs = np.array([[0.5, 1.0], [2.0, 10.0]])
        out = sine_integral(xs)
        assert out.shape == xs.shape
        assert abs(out[0, 1] - SI_AT_1) < 1e-13

    def test_negative_rejected(self):
        with pytest.raises(NegativeArgument):
            sine_integral(-0.1)

    def test_limit(self):
        assert abs(sine_integral(1e4) - math.pi / 2.0) < 2e-4

    def test_golden_within_one_ulp(self):
        xs = np.array([float.fromhex(x) for x, _ in SI_GOLDEN])
        want = np.array([float.fromhex(y) for _, y in SI_GOLDEN])
        got = sine_integral(xs)
        assert np.all(np.abs(got - want) <= np.spacing(want))
        # the array kernel and its scalar wrapper agree bit for bit
        assert [float(v).hex() for v in got] == [sine_integral(float(x)).hex() for x in xs]

    def test_scalar_and_0d_return_float(self):
        assert type(sine_integral(5.0)) is float
        assert type(sine_integral(np.array(0.5))) is float
        assert sine_integral(np.array([])).shape == (0,)

    def test_negative_element_rejected(self):
        with pytest.raises(NegativeArgument, match="-2.0"):
            sine_integral(np.array([1.0, 5.0, -2.0, -3.0]))


class TestExp1I:
    def test_against_scipy(self):
        xs = np.concatenate(
            [np.geomspace(1e-9, 3.9, 120), np.linspace(3.9, 4.1, 41), np.geomspace(4.1, 1e4, 120)]
        )
        for x in (xs, -xs):  # negative x: the complex conjugate
            want = special.exp1(1j * x)
            assert np.max(np.abs(exp1_i(x) - want) / np.abs(want)) < 1e-12  # observed 7e-15

    def test_split_point_continuity(self):
        # Ci series below 4, continued fraction above
        assert abs(exp1_i(4.0 - 1e-9) - exp1_i(4.0 + 1e-9)) < 1e-8

    def test_si_and_ci_parts(self):
        xs = np.array([0.5, 4.0, 9.0])
        e1 = exp1_i(xs)
        assert np.max(np.abs(e1.imag + math.pi / 2.0 - sine_integral(xs))) < 1e-15
        assert np.max(np.abs(-e1.real - special.sici(xs)[1])) < 1e-14

    def test_scalar_and_shape(self):
        assert type(exp1_i(2.0)) is complex
        assert exp1_i(np.ones((2, 3))).shape == (2, 3)

    def test_array_matches_scalar_calls(self):
        # both branches, both signs: one array call gives the scalar calls' bits
        xs = np.concatenate([np.geomspace(1e-6, 4.0, 400), np.geomspace(4.0, 1e4, 400)])
        xs = np.concatenate([xs, -xs]).reshape(40, 40)
        assert exp1_i(xs).tolist() == [[exp1_i(float(v)) for v in row] for row in xs]


def _scipy_fresnel(x):
    # int_0^x e^{iv^2} dv from scipy's normalized S and C
    s, c = special.fresnel(np.asarray(x) * math.sqrt(2.0 / math.pi))
    return math.sqrt(math.pi / 2.0) * (c + 1j * s)


class TestFresnel:
    def test_against_scipy(self):
        xs = np.concatenate(
            [np.geomspace(1e-9, 1.9, 120), np.linspace(1.9, 2.1, 41), np.geomspace(2.1, 1e4, 200)]
        )
        for x in (xs, -xs):  # odd
            # scipy's own rounding of its scaled argument grows with x
            assert np.max(np.abs(fresnel(x) - _scipy_fresnel(x))) < 3e-12  # observed 1.7e-12
        small = xs[xs <= 10.0]
        assert np.max(np.abs(fresnel(small) - _scipy_fresnel(small))) < 5e-15  # observed 1.2e-15

    def test_zero_and_limit(self):
        assert fresnel(0.0) == 0.0
        limit = 0.5 * math.sqrt(math.pi) * complex(math.sqrt(0.5), math.sqrt(0.5))
        # the tail is i e^{ix^2} / (2x) to leading order
        assert abs(fresnel(1e4) - limit) == pytest.approx(0.5e-4, rel=1e-6)

    def test_split_point_continuity(self):
        # power series up to 2, continued fraction above
        assert abs(fresnel(2.0 - 1e-9) - fresnel(2.0 + 1e-9)) < 1e-8

    def test_scalar_and_shape(self):
        assert type(fresnel(2.0)) is complex
        assert type(fresnel(np.float64(3.0))) is complex
        assert fresnel(np.ones((2, 3))).shape == (2, 3)
        assert fresnel(np.array([])).shape == (0,)
        grid = np.linspace(0.0, 5.0, 12).reshape(3, 4)
        assert fresnel(grid).tolist() == [[fresnel(float(v)) for v in row] for row in grid]


def test_limits_at_infinity():
    """Si, E1(ix) and F return their limits at +-inf, and F its limit wherever
    x^2 overflows, without a numpy warning."""
    inf = math.inf
    limit = 0.5 * math.sqrt(math.pi) * complex(math.sqrt(0.5), math.sqrt(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sine_integral(inf) == math.pi / 2
        assert exp1_i(inf) == 0.0 and exp1_i(-inf) == 0.0
        for x in (inf, 2.0**512, 1e300, np.finfo(float).max, np.nextafter(2.0**512, 0.0)):
            assert fresnel(x) == limit and fresnel(-x) == -limit
        # array calls mixing finite and infinite points
        assert sine_integral(np.array([1.0, inf])).tolist() == [sine_integral(1.0), math.pi / 2]
        assert exp1_i(np.array([-inf, 5.0, inf])).tolist() == [0.0, exp1_i(5.0), 0.0]
        assert fresnel(np.array([1.0, 10.0, 1e200, -inf])).tolist() == [
            fresnel(1.0), fresnel(10.0), limit, -limit
        ]


def _hankel_modulus_phase(degree=13):
    """Exact coefficients of M = P^2 + Q^2 and Phi = atan(Q/P) in y = 1/x,
    J0's Hankel cosine/sine series P = sum (-1)^k c_2k y^2k and
    Q = -sum (-1)^k c_(2k+1) y^(2k+1), truncated after y^degree, from the
    Hankel symbols c_m = prod_{j<=m} (2j-1)^2 / (8^m m!)."""
    n = degree + 1
    c = [Fraction(1)]
    for m in range(1, n):
        c.append(c[-1] * (2 * m - 1) ** 2 / (8 * m))
    P = [(-1) ** (m // 2) * c[m] if m % 2 == 0 else Fraction(0) for m in range(n)]
    Q = [-((-1) ** (m // 2)) * c[m] if m % 2 else Fraction(0) for m in range(n)]

    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]

    inv_p = [1 / P[0]] + [Fraction(0)] * degree
    for k in range(1, n):
        inv_p[k] = -sum(P[i] * inv_p[k - i] for i in range(1, k + 1)) / P[0]
    t = mul(Q, inv_p)  # odd, starting at y^1
    t2 = mul(t, t)
    phi = [Fraction(0)] * n
    power, j = t, 0
    while any(power):  # atan t = t - t^3/3 + t^5/5 - ...
        phi = [f + Fraction((-1) ** j, 2 * j + 1) * p for f, p in zip(phi, power)]
        power, j = mul(power, t2), j + 1
    modulus = [a + b for a, b in zip(mul(P, P), mul(Q, Q))]
    return modulus[0:n:2], phi[1:n:2]


class TestBesselJ0:
    def test_against_scipy(self):
        # the whole range check_si_vs_hankel feeds it: q rho up to ~2000
        xs = np.linspace(0.0, 2000.0, 400001)
        assert np.max(np.abs(bessel_j0(xs) - special.j0(xs))) < 1e-11  # observed 5.3e-12

    def test_split_point(self):
        for x in (11.999999, 12.000001):
            assert abs(bessel_j0(x) - special.j0(x)) < 1e-9

    def test_continuous_across_split(self):
        # power series at 12 and below, modulus-phase form above
        below, above = 12.0, float(np.nextafter(12.0, 13.0))
        assert abs(bessel_j0(below) - bessel_j0(above)) < 1e-11  # observed 4.9e-12
        xs = np.linspace(11.9, 12.1, 2001)
        assert np.max(np.abs(bessel_j0(xs) - special.j0(xs))) < 1e-11

    def test_modulus_phase_coefficients_exact(self):
        modulus, phase = _hankel_modulus_phase()
        assert modulus[:3] == [1, Fraction(-1, 8), Fraction(27, 128)]
        assert phase[:3] == [Fraction(-1, 8), Fraction(25, 384), Fraction(-1073, 5120)]
        assert numerics._J0_MODULUS == tuple(float(v) for v in modulus)
        assert numerics._J0_PHASE == tuple(float(v) for v in phase)

    def test_non_finite(self):
        # the limit at +-inf is 0.0, as scipy returns; NaN stays NaN; no warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_j0(math.inf) == 0.0 and bessel_j0(-math.inf) == 0.0
            assert math.isnan(bessel_j0(math.nan))
            out = bessel_j0(np.array([math.inf, 3.0, math.nan, -math.inf, 30.0]))
        assert out[0] == 0.0 and out[3] == 0.0 and math.isnan(out[2])
        assert np.array_equal(out[[1, 4]], bessel_j0(np.array([3.0, 30.0])))

    def test_array_shape_kept(self):
        xs = np.linspace(0.0, 300.0, 20000)
        grid = bessel_j0(xs.reshape(100, 200))
        assert grid.shape == (100, 200)
        assert np.array_equal(grid.ravel(), bessel_j0(xs))

    def test_even(self):
        assert bessel_j0(-7.3) == bessel_j0(7.3)

    def test_scalar(self):
        assert bessel_j0(0.0) == 1.0
        assert isinstance(bessel_j0(2.0), float)
        assert type(bessel_j0(np.array(20.0))) is float


class TestFindRoot:
    def test_cosine_root(self):
        assert abs(find_root(math.cos, 1.0, 2.0, tol=1e-13) - math.pi / 2.0) < 1e-12

    def test_endpoint_zero_returned_exactly(self):
        assert find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert find_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_root(math.cos, 2.0, 1.0)

    def test_deterministic(self):
        a = find_root(lambda x: x**3 - 2.0, 0.0, 2.0, tol=1e-14)
        b = find_root(lambda x: x**3 - 2.0, 0.0, 2.0, tol=1e-14)
        assert a == b
        assert abs(a - 2.0 ** (1.0 / 3.0)) < 1e-13

    def test_stops_at_float_resolution(self):
        """tol = 0 is never met: the loop ends once the bracket midpoint
        falls on an endpoint, next to the root."""
        got = find_root(lambda t: t * t - 2.0, 1.0, 2.0, tol=0.0)
        assert abs(got - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=50)
    def test_recovers_linear_root(self, r):
        got = find_root(lambda x: x - r, -6.0, 6.0, tol=1e-12)
        assert abs(got - r) < 1e-11


class TestGaussianRadial:
    @pytest.mark.parametrize("var", [0.04, 1.0, 37.5])
    def test_marginal_projects_pdf(self, var):
        """The closed-form 1D marginal integrates to one and is the
        projection of the density's own pdf over the other axis."""
        g = gaussian_radial(var)
        mass, _ = integrate.quad(g.marginal, -math.inf, math.inf)
        assert mass == pytest.approx(1.0, rel=1e-12)
        for t in (0.0, 0.3, 1.0, 2.5):
            x = t * g.sigma
            want, _ = integrate.quad(lambda y: float(g.pdf(math.hypot(x, y))), -math.inf, math.inf)
            assert float(g.marginal(x)) == pytest.approx(want, rel=1e-10)


class TestRadialGrid:
    def test_midpoint_layout(self):
        g = RadialGrid.from_function(lambda r: r, 2.0, 32)
        assert g.n == 32
        assert g.step == 2.0 / 32
        assert g.nodes[0] == pytest.approx(g.step / 2.0)
        assert np.allclose(np.diff(g.nodes), g.step)
        assert np.array_equal(g.values, g.nodes)

    def test_too_few_samples(self):
        with pytest.raises(GridTooCoarse):
            RadialGrid(1.0, np.ones(15))

    def test_bad_r_max(self):
        with pytest.raises(NonPositiveParameter):
            RadialGrid(0.0, np.ones(32))
        with pytest.raises(NonPositiveParameter):
            RadialGrid.from_function(lambda r: r, -1.0, 32)


class TestHankel0:
    def test_gaussian_self_transform(self):
        # f(q) = exp(-q^2)  ->  exp(-rho^2/4) / (4 pi)
        g = RadialGrid.from_function(lambda q: np.exp(-q * q), 25.0, 4096)
        for rho in (0.0, 0.5, 1.3, 2.7, 4.0):
            want = math.exp(-rho * rho / 4.0) / (4.0 * math.pi)
            assert abs(hankel0(g, rho) - want) < 1e-6  # observed ~2.5e-7

    def test_negative_rho(self):
        g = RadialGrid.from_function(lambda q: np.exp(-q * q), 10.0, 64)
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(NegativeArgument, match="finite rho >= 0"):
                hankel0(g, bad)
            with pytest.raises(NegativeArgument, match=f"got {bad!r}"):
                hankel0(g, np.array([0.5, bad, 1.0]))

    def test_oscillation_guard(self):
        g = RadialGrid.from_function(lambda q: np.exp(-q * q), 30.0, 64)
        with pytest.raises(GridTooCoarse) as exc_info:
            hankel0(g, 10.0)
        needed = exc_info.value.suggested_count
        assert needed is not None and needed > 64
        finer = RadialGrid.from_function(lambda q: np.exp(-q * q), 30.0, int(needed))
        hankel0(finer, 10.0)  # must not raise

    def test_array_matches_scalar_calls(self):
        g = RadialGrid.from_function(lambda q: np.exp(-q * q), 25.0, 4096)
        rhos = np.array([[0.0, 0.5, 1.3], [2.7, 4.0, 0.5]])
        out = hankel0(g, rhos)
        assert out.shape == rhos.shape
        want = np.array([[hankel0(g, float(r)) for r in row] for row in rhos])
        assert out.tobytes() == want.tobytes()
        assert type(hankel0(g, 1.3)) is float and type(hankel0(g, np.array(1.3))) is float
        assert hankel0(g, np.array([])).shape == (0,)

    def test_guard_reads_largest_radius(self):
        g = RadialGrid.from_function(lambda q: np.exp(-q * q), 30.0, 64)
        hankel0(g, np.array([0.0, 1.0, 2.0]))  # all resolved
        with pytest.raises(GridTooCoarse) as exc_info:
            hankel0(g, np.array([0.0, 1.0, 10.0, 2.0]))
        assert "rho=10" in str(exc_info.value)
        assert exc_info.value.suggested_count == math.ceil(4.0 * 30.0 * 10.0 / (2.0 * math.pi))


def _gaussian_grid(var1, var2, covar, half=8.0, n=256):
    x = np.linspace(-half, half, n + 1)[:-1] + half / n
    return gaussian_2d(x[:, None], x[None, :], var1, var2, covar), x, x


class TestGridMoments:
    def test_separable_gaussian(self):
        m = grid_moments(*_gaussian_grid(1.5, 0.6, 0.0))
        assert abs(m.mean1) < 1e-12 and abs(m.mean2) < 1e-12
        assert m.var1 == pytest.approx(1.5, rel=1e-4)
        assert m.var2 == pytest.approx(0.6, rel=1e-4)
        assert abs(m.covar) < 1e-6

    def test_correlated_gaussian(self):
        m = grid_moments(*_gaussian_grid(1.0, 1.0, 0.7))
        assert m.covar == pytest.approx(0.7, rel=1e-3)
        assert m.var1 == pytest.approx(1.0, rel=1e-3)

    def test_normalization_free(self):
        vals, x, y = _gaussian_grid(1.0, 1.0, 0.0)
        for a, b in zip(grid_moments(vals * 7.5, x, y), grid_moments(vals, x, y)):
            assert abs(a - b) < 1e-12  # scaling only reshuffles rounding

    def test_zero_mass(self):
        centers = (np.arange(8) + 0.5) / 8
        with pytest.raises(ZeroMass):
            grid_moments(np.zeros((8, 8)), centers, centers)


class TestFormatDistinct:
    def test_one_call_per_bit_pattern(self):
        values = np.array([[0.1, -0.0, 0.0, 0.1], [2.5, 0.0, -0.0, 5e-324], [0.1, 2.5, 5e-324, 1e300]])
        calls = []

        def fmt(v):
            calls.append(v)
            return repr(v)

        out = _format_distinct(values, fmt)
        assert out == [[repr(v) for v in row] for row in values.tolist()]
        # -0.0 and 0.0 compare equal but are two bit patterns, each formatted once
        assert len(calls) == 6
        assert sorted(map(repr, calls)) == sorted(["-0.0", "0.0", "0.1", "2.5", "5e-324", "1e+300"])
        assert out[0][1] == "-0.0" and out[0][2] == "0.0"

    def test_list_input_and_empty(self):
        assert _format_distinct([3.0, 0, 3.0], "{:.9g}".format) == ["3", "0", "3"]
        assert _format_distinct([], repr) == []
