"""Special functions and grid machinery against scipy and closed forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SI_AT_1, SI_AT_PI, gaussian_2d, midpoints
from scipy import integrate, special

from spdc_coherence import numerics, phasematch
from spdc_coherence.errors import (
    GridTooCoarse,
    NegativeArgument,
    NonPositiveParameter,
    NoSignChange,
    ZeroMass,
)
from spdc_coherence.params import CrystalParams
from spdc_coherence.numerics import (
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


# Si(x) as float.hex() pairs, y = float(mpmath.si(mpmath.mpf(x))) at
# mpmath.mp.dps = 40, the correctly rounded values; both sides of the x = 4
# split
SI_GOLDEN = [
    ('0x0.0p+0', '0x0.0p+0'),
    ('0x1.56e1fc2f8f359p-997', '0x1.56e1fc2f8f359p-997'),
    ('0x1.12e0be826d695p-30', '0x1.12e0be826d695p-30'),
    ('0x1.0624dd2f1a9fcp-10', '0x1.0624dc3ac4a19p-10'),
    ('0x1.999999999999ap-4', '0x1.995f5cfe05b52p-4'),
    ('0x1.0000000000000p-1', '0x1.f8f126a7a3cfap-2'),
    ('0x1.0000000000000p+0', '0x1.e465000d0d798p-1'),
    ('0x1.8000000000000p+0', '0x1.531e75bbef1dfp+0'),
    ('0x1.0000000000000p+1', '0x1.9afc5847f10b7p+0'),
    ('0x1.921fb54442d18p+1', '0x1.da188bf083edap+0'),
    ('0x1.c000000000000p+1', '0x1.d547b4c4bcc78p+0'),
    ('0x1.f333333333333p+1', '0x1.c6c8cb0c6c3ecp+0'),
    ('0x1.fffff79c842fap+1', '0x1.c2199d021ef7dp+0'),
    ('0x1.0000000000000p+2', '0x1.c21999d582bf0p+0'),
    ('0x1.0000000000001p+2', '0x1.c21999d582befp+0'),
    ('0x1.00000431bde83p+2', '0x1.c21996a8e6657p+0'),
    ('0x1.0666666666666p+2', '0x1.bd1e4d63e91c4p+0'),
    ('0x1.2000000000000p+2', '0x1.a775bf06c0309p+0'),
    ('0x1.4000000000000p+2', '0x1.8cc84b4816003p+0'),
    ('0x1.9000000000000p+2', '0x1.6b11bea9469abp+0'),
    ('0x1.0000000000000p+3', '0x1.92fde85506872p+0'),
    ('0x1.4000000000000p+3', '0x1.a88977ca92020p+0'),
    ('0x1.14ccccccccccdp+4', '0x1.92a68fd76828cp+0'),
    ('0x1.f000000000000p+4', '0x1.8ab13e9b3a468p+0'),
    ('0x1.0200000000000p+6', '0x1.9272c35486da4p+0'),
    ('0x1.9000000000000p+6', '0x1.8fee0219444edp+0'),
    ('0x1.0100000000000p+8', '0x1.914f5b6e57e0fp+0'),
    ('0x1.f3f3333333333p+9', '0x1.91f5925d87827p+0'),
    ('0x1.34a0000000000p+10', '0x1.925439865a769p+0'),
    ('0x1.7700000000000p+11', '0x1.92350544654f3p+0'),
    ('0x1.f400000000000p+11', '0x1.922bab9a382a0p+0'),
    ('0x1.f3fc000000000p+12', '0x1.921d29e26d649p+0'),
]

# E1(ix) as float.hex() triples (x, Re, Im), from
# complex(mpmath.e1(1j * mpmath.mpf(x))) at mpmath.mp.dps = 40: across the
# series branch, densest just below the split at 4 where its terms cancel
# most, and out to 1e4 on the continued fraction
E1_REFERENCE = [
    ('0x1.12e0be826d695p-30', '0x1.425638b488207p+4', '-0x1.921fb53ff74e9p+0'),
    ('0x1.0c6f7a0b5ed8dp-20', '0x1.a7a01c9c904cbp+3', '-0x1.921fa47d4b30dp+0'),
    ('0x1.0624dd2f1a9fcp-10', '0x1.952790ac90072p+2', '-0x1.91de2c0d34206p+0'),
    ('0x1.999999999999ap-4', '0x1.ba5595247c415p+0', '-0x1.7889bf7462763p+0'),
    ('0x1.0000000000000p-1', '0x1.6c1a0f21ca866p-3', '-0x1.13e36b9a59ddap+0'),
    ('0x1.0000000000000p+0', '-0x1.598069f99b67fp-2', '-0x1.3fda6a7b78298p-1'),
    ('0x1.0000000000000p+1', '-0x1.b121e2e9b12c6p-2', '0x1.1b946075c73dfp-5'),
    ('0x1.8000000000000p+1', '-0x1.ea00ec28826a7p-4', '0x1.1c865604a860ap-2'),
    ('0x1.b126e978d4fdfp+1', '-0x1.b227089a29f4cp-15', '0x1.16d244484a782p-2'),
    ('0x1.c000000000000p+1', '0x1.073273242139bp-5', '0x1.0c9ffe01e7d80p-2'),
    ('0x1.e3851eb851eb8p+1', '0x1.95ab552f5e1d9p-4', '0x1.cf348b1d0d4bep-3'),
    ('0x1.e67e0ac4b89c0p+1', '0x1.a9b0b188cea22p-4', '0x1.c7a2728bd97d5p-3'),
    ('0x1.ecccccccccccdp+1', '0x1.d297750281cc5p-4', '0x1.b6f8879252751p-3'),
    ('0x1.f333333333333p+1', '0x1.f9da741ecc2efp-4', '0x1.a548ae414b69dp-3'),
    ('0x1.fc595388eaf0cp+1', '0x1.16fe45ddea351p-3', '0x1.8ac35472a054ep-3'),
    ('0x1.fe571bcd53660p+1', '0x1.1c59f8cd7023ap-3', '0x1.84d036a61b576p-3'),
    ('0x1.0000000000000p+2', '0x1.20bb032e1243dp-3', '0x1.7fcf2489ff6bcp-3'),
    ('0x1.2000000000000p+2', '0x1.8c4512cbf24cep-3', '0x1.55609c27d5f0cp-4'),
    ('0x1.4000000000000p+3', '0x1.74610ca4b3d24p-5', '0x1.669c2864f3076p-4'),
    ('0x1.9000000000000p+6', '0x1.516ef399af874p-8', '-0x1.18d9957f4159cp-7'),
    ('0x1.3880000000000p+13', '0x1.0049bdd83ec4bp-15', '0x1.8f602f03a1a6dp-14'),
]

# F(x) = int_0^x e^{iv^2} dv as float.hex() triples (x, Re, Im), from
# sqrt(pi/2) (fresnelc(x s) + i fresnels(x s)), s = sqrt(2/pi), in mpmath
# at mpmath.mp.dps = 40: densest near the split at 2
FRESNEL_REFERENCE = [
    ('0x1.12e0be826d695p-30', '0x1.12e0be826d695p-30', '0x1.a68cd9e985016p-92'),
    ('0x1.0000000000000p-2', '0x1.ffcccf2b8f63dp-3', '0x1.553cf495d1889p-8'),
    ('0x1.6666666666666p-1', '0x1.5de3d327f9546p-1', '0x1.cc56c409276a6p-4'),
    ('0x1.0000000000000p+0', '0x1.cf1dcd087125ep-1', '0x1.3db6f9438cadfp-2'),
    ('0x1.8000000000000p+0', '0x1.cc61f5006bab6p-1', '0x1.8e752f7c04660p-1'),
    ('0x1.e666666666666p+0', '0x1.1467e18347b7fp-1', '0x1.bb4eeda97c46bp-1'),
    ('0x1.f8d4618c2232cp+0', '0x1.ec744c5dc47b2p-2', '0x1.a65aa81fef50ep-1'),
    ('0x1.fc57e633a1eeap+0', '0x1.e268461d89ea2p-2', '0x1.a170ead09380fp-1'),
    ('0x1.fe1f3e1e9b3e1p+0', '0x1.dd87796a60917p-2', '0x1.9eda0713324efp-1'),
    ('0x1.0000000000000p+1', '0x1.d8895a860f5b6p-2', '0x1.9c0ba9fca46a8p-1'),
    ('0x1.0fa6d2354b934p+1', '0x1.a137cab4f16d1p-2', '0x1.649e2015ffd10p-1'),
    ('0x1.4000000000000p+2', '0x1.39122c088700ep-1', '0x1.0e4b2c833253fp-1'),
    ('0x1.4000000000000p+3', '0x1.33c6ae2326c21p-1', '0x1.2ad6e985a634bp-1'),
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

    def test_mpmath_reference_points(self):
        # 5e-15 at every point here, the worst of them just below the split;
        # the docstring's 5.7e-15 is the largest of a dense scan of (3.7, 4]
        x = np.array([float.fromhex(v) for v, _, _ in E1_REFERENCE])
        want = np.array([complex(float.fromhex(re), float.fromhex(im)) for _, re, im in E1_REFERENCE])
        for sign, ref in ((1.0, want), (-1.0, want.conj())):
            assert np.max(np.abs(exp1_i(sign * x) - ref) / np.abs(ref)) <= 5e-15

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

    def test_mpmath_reference_points(self):
        # the documented 1e-15, on both sides of the split at 2
        x = np.array([float.fromhex(v) for v, _, _ in FRESNEL_REFERENCE])
        want = np.array([complex(float.fromhex(re), float.fromhex(im)) for _, re, im in FRESNEL_REFERENCE])
        for sign in (1.0, -1.0):  # odd
            assert np.max(np.abs(fresnel(sign * x) - sign * want)) <= 1e-15

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


# Each kernel's bits as float.hex() pairs (x, y) or triples (x, Re, Im)
# on both sides of every split (1 for the ramp kernel, 2 for F, 4 for Si
# and E1, 12 for J0), at +-0, +-inf, NaN and F's 2^512 wherever the kernel
# accepts them: the values of the one-split-per-kernel code when the
# domain split moved into numerics._split_domain
BOUNDARY_BITS = {
    "sine_integral": [
        ('0x1.fffffffffffffp-1', '0x1.e465000d0d797p-1'),
        ('0x1.0000000000000p+0', '0x1.e465000d0d798p-1'),
        ('0x1.0000000000001p+0', '0x1.e465000d0d79ap-1'),
        ('0x1.fffffffffffffp+0', '0x1.9afc5847f10b7p+0'),
        ('0x1.0000000000000p+1', '0x1.9afc5847f10b8p+0'),
        ('0x1.0000000000001p+1', '0x1.9afc5847f10b9p+0'),
        ('0x1.fffffffffffffp+1', '0x1.c21999d582bf1p+0'),
        ('0x1.0000000000000p+2', '0x1.c21999d582bf0p+0'),
        ('0x1.0000000000001p+2', '0x1.c21999d582beep+0'),
        ('0x1.7ffffffffffffp+3', '0x1.8145cb97c6bb0p+0'),
        ('0x1.8000000000000p+3', '0x1.8145cb97c6bb0p+0'),
        ('0x1.8000000000001p+3', '0x1.8145cb97c6bafp+0'),
        ('0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '-0x0.0p+0'),
        ('inf', '0x1.921fb54442d18p+0'),
        ('nan', 'nan'),
    ],
    "exp1_i": [
        ('0x1.fffffffffffffp-1', '-0x1.598069f99b67ep-2', '-0x1.3fda6a7b78299p-1'),
        ('0x1.0000000000000p+0', '-0x1.598069f99b67ep-2', '-0x1.3fda6a7b78298p-1'),
        ('0x1.0000000000001p+0', '-0x1.598069f99b681p-2', '-0x1.3fda6a7b78296p-1'),
        ('0x1.fffffffffffffp+0', '-0x1.b121e2e9b12cap-2', '0x1.1b946075c73e0p-5'),
        ('0x1.0000000000000p+1', '-0x1.b121e2e9b12c6p-2', '0x1.1b946075c7400p-5'),
        ('0x1.0000000000001p+1', '-0x1.b121e2e9b12c4p-2', '0x1.1b946075c7420p-5'),
        ('0x1.fffffffffffffp+1', '0x1.20bb032e12430p-3', '0x1.7fcf2489ff6c8p-3'),
        ('0x1.0000000000000p+2', '0x1.20bb032e12440p-3', '0x1.7fcf2489ff6c0p-3'),
        ('0x1.0000000000001p+2', '0x1.20bb032e1243cp-3', '0x1.7fcf2489ff6b0p-3'),
        ('0x1.7ffffffffffffp+3', '0x1.97cc3db1fb46bp-5', '-0x1.0d9e9ac7c167ep-4'),
        ('0x1.8000000000000p+3', '0x1.97cc3db1fb466p-5', '-0x1.0d9e9ac7c1686p-4'),
        ('0x1.8000000000001p+3', '0x1.97cc3db1fb450p-5', '-0x1.0d9e9ac7c168bp-4'),
        ('-0x1.fffffffffffffp-1', '-0x1.598069f99b67ep-2', '0x1.3fda6a7b78299p-1'),
        ('-0x1.0000000000000p+0', '-0x1.598069f99b67ep-2', '0x1.3fda6a7b78298p-1'),
        ('-0x1.0000000000001p+0', '-0x1.598069f99b681p-2', '0x1.3fda6a7b78296p-1'),
        ('-0x1.fffffffffffffp+0', '-0x1.b121e2e9b12cap-2', '-0x1.1b946075c73e0p-5'),
        ('-0x1.0000000000000p+1', '-0x1.b121e2e9b12c6p-2', '-0x1.1b946075c7400p-5'),
        ('-0x1.0000000000001p+1', '-0x1.b121e2e9b12c4p-2', '-0x1.1b946075c7420p-5'),
        ('-0x1.fffffffffffffp+1', '0x1.20bb032e12430p-3', '-0x1.7fcf2489ff6c8p-3'),
        ('-0x1.0000000000000p+2', '0x1.20bb032e12440p-3', '-0x1.7fcf2489ff6c0p-3'),
        ('-0x1.0000000000001p+2', '0x1.20bb032e1243cp-3', '-0x1.7fcf2489ff6b0p-3'),
        ('-0x1.7ffffffffffffp+3', '0x1.97cc3db1fb46bp-5', '0x1.0d9e9ac7c167ep-4'),
        ('-0x1.8000000000000p+3', '0x1.97cc3db1fb466p-5', '0x1.0d9e9ac7c1686p-4'),
        ('-0x1.8000000000001p+3', '0x1.97cc3db1fb450p-5', '0x1.0d9e9ac7c168bp-4'),
        ('inf', '0x0.0p+0', '0x0.0p+0'),
        ('-inf', '0x0.0p+0', '-0x0.0p+0'),
        ('nan', 'nan', 'nan'),
    ],
    "fresnel": [
        ('0x1.fffffffffffffp-1', '0x1.cf1dcd087125ep-1', '0x1.3db6f9438caddp-2'),
        ('0x1.0000000000000p+0', '0x1.cf1dcd087125ep-1', '0x1.3db6f9438cadfp-2'),
        ('0x1.0000000000001p+0', '0x1.cf1dcd0871260p-1', '0x1.3db6f9438cae1p-2'),
        ('0x1.fffffffffffffp+0', '0x1.d8895a860f5b3p-2', '0x1.9c0ba9fca46a9p-1'),
        ('0x1.0000000000000p+1', '0x1.d8895a860f5b0p-2', '0x1.9c0ba9fca46a8p-1'),
        ('0x1.0000000000001p+1', '0x1.d8895a860f5aap-2', '0x1.9c0ba9fca46a4p-1'),
        ('0x1.fffffffffffffp+1', '0x1.305d1aa2bec59p-1', '0x1.7e8853c8ff2dfp-1'),
        ('0x1.0000000000000p+2', '0x1.305d1aa2bec55p-1', '0x1.7e8853c8ff2dfp-1'),
        ('0x1.0000000000001p+2', '0x1.305d1aa2bec4ep-1', '0x1.7e8853c8ff2dcp-1'),
        ('0x1.7ffffffffffffp+3', '0x1.364f24a28cbddp-1', '0x1.2e4d0cee4e6a4p-1'),
        ('0x1.8000000000000p+3', '0x1.364f24a28cbe6p-1', '0x1.2e4d0cee4e69fp-1'),
        ('0x1.8000000000001p+3', '0x1.364f24a28cbf9p-1', '0x1.2e4d0cee4e695p-1'),
        ('-0x1.fffffffffffffp-1', '-0x1.cf1dcd087125ep-1', '-0x1.3db6f9438caddp-2'),
        ('-0x1.0000000000000p+0', '-0x1.cf1dcd087125ep-1', '-0x1.3db6f9438cadfp-2'),
        ('-0x1.0000000000001p+0', '-0x1.cf1dcd0871260p-1', '-0x1.3db6f9438cae1p-2'),
        ('-0x1.fffffffffffffp+0', '-0x1.d8895a860f5b3p-2', '-0x1.9c0ba9fca46a9p-1'),
        ('-0x1.0000000000000p+1', '-0x1.d8895a860f5b0p-2', '-0x1.9c0ba9fca46a8p-1'),
        ('-0x1.0000000000001p+1', '-0x1.d8895a860f5aap-2', '-0x1.9c0ba9fca46a4p-1'),
        ('-0x1.fffffffffffffp+1', '-0x1.305d1aa2bec59p-1', '-0x1.7e8853c8ff2dfp-1'),
        ('-0x1.0000000000000p+2', '-0x1.305d1aa2bec55p-1', '-0x1.7e8853c8ff2dfp-1'),
        ('-0x1.0000000000001p+2', '-0x1.305d1aa2bec4ep-1', '-0x1.7e8853c8ff2dcp-1'),
        ('-0x1.7ffffffffffffp+3', '-0x1.364f24a28cbddp-1', '-0x1.2e4d0cee4e6a4p-1'),
        ('-0x1.8000000000000p+3', '-0x1.364f24a28cbe6p-1', '-0x1.2e4d0cee4e69fp-1'),
        ('-0x1.8000000000001p+3', '-0x1.364f24a28cbf9p-1', '-0x1.2e4d0cee4e695p-1'),
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('inf', '0x1.40d931ff62706p-1', '0x1.40d931ff62706p-1'),
        ('-inf', '-0x1.40d931ff62706p-1', '-0x1.40d931ff62706p-1'),
        ('nan', 'nan', 'nan'),
        ('0x1.fffffffffffffp+511', '0x1.40d931ff62706p-1', '0x1.40d931ff62706p-1'),
        ('0x1.0000000000000p+512', '0x1.40d931ff62706p-1', '0x1.40d931ff62706p-1'),
        ('0x1.0000000000001p+512', '0x1.40d931ff62706p-1', '0x1.40d931ff62706p-1'),
        ('-0x1.0000000000000p+512', '-0x1.40d931ff62706p-1', '-0x1.40d931ff62706p-1'),
    ],
    "bessel_j0": [
        ('0x1.fffffffffffffp-1', '0x1.87c7fdbd7b8f0p-1'),
        ('0x1.0000000000000p+0', '0x1.87c7fdbd7b8f0p-1'),
        ('0x1.0000000000001p+0', '0x1.87c7fdbd7b8eep-1'),
        ('0x1.fffffffffffffp+0', '0x1.ca873fb24cf00p-3'),
        ('0x1.0000000000000p+1', '0x1.ca873fb24cef8p-3'),
        ('0x1.0000000000001p+1', '0x1.ca873fb24cef0p-3'),
        ('0x1.fffffffffffffp+1', '-0x1.96ae7093e94f4p-2'),
        ('0x1.0000000000000p+2', '-0x1.96ae7093e94f8p-2'),
        ('0x1.0000000000001p+2', '-0x1.96ae7093e94f4p-2'),
        ('0x1.7ffffffffffffp+3', '0x1.86abbbc7b1b60p-5'),
        ('0x1.8000000000000p+3', '0x1.86abbbc7a9200p-5'),
        ('0x1.8000000000001p+3', '0x1.86abbbc6fb35ep-5'),
        ('-0x1.fffffffffffffp-1', '0x1.87c7fdbd7b8f0p-1'),
        ('-0x1.0000000000000p+0', '0x1.87c7fdbd7b8f0p-1'),
        ('-0x1.0000000000001p+0', '0x1.87c7fdbd7b8eep-1'),
        ('-0x1.fffffffffffffp+0', '0x1.ca873fb24cf00p-3'),
        ('-0x1.0000000000000p+1', '0x1.ca873fb24cef8p-3'),
        ('-0x1.0000000000001p+1', '0x1.ca873fb24cef0p-3'),
        ('-0x1.fffffffffffffp+1', '-0x1.96ae7093e94f4p-2'),
        ('-0x1.0000000000000p+2', '-0x1.96ae7093e94f8p-2'),
        ('-0x1.0000000000001p+2', '-0x1.96ae7093e94f4p-2'),
        ('-0x1.7ffffffffffffp+3', '0x1.86abbbc7b1b60p-5'),
        ('-0x1.8000000000000p+3', '0x1.86abbbc7a9200p-5'),
        ('-0x1.8000000000001p+3', '0x1.86abbbc6fb35ep-5'),
        ('0x0.0p+0', '0x1.0000000000000p+0'),
        ('-0x0.0p+0', '0x1.0000000000000p+0'),
        ('inf', '0x0.0p+0'),
        ('-inf', '0x0.0p+0'),
        ('nan', 'nan'),
    ],
    "_ramp_kernel": [
        ('0x1.fffffffffffffp-1', '0x1.4720e6e10be9fp+0', '0x1.06775a6cd7e17p-2'),
        ('0x1.0000000000000p+0', '0x1.4720e6e10be9fp+0', '0x1.06775a6cd7e18p-2'),
        ('0x1.0000000000001p+0', '0x1.4720e6e10bea0p+0', '0x1.06775a6cd7e16p-2'),
        ('0x1.fffffffffffffp+0', '0x1.80a509fa0cb5bp-1', '0x1.2ad87c38d6e1dp-1'),
        ('0x1.0000000000000p+1', '0x1.80a509fa0cb58p-1', '0x1.2ad87c38d6e1dp-1'),
        ('0x1.0000000000001p+1', '0x1.80a509fa0cb55p-1', '0x1.2ad87c38d6e1cp-1'),
        ('0x1.fffffffffffffp+1', '0x1.4ebe5f4965dfdp-2', '0x1.37bb1ff6bcd8dp-2'),
        ('0x1.0000000000000p+2', '0x1.4ebe5f4965dfcp-2', '0x1.37bb1ff6bcd8ep-2'),
        ('0x1.0000000000001p+2', '0x1.4ebe5f4965dfbp-2', '0x1.37bb1ff6bcd8dp-2'),
        ('0x1.7ffffffffffffp+3', '0x1.ad1ca67683555p-4', '0x1.aa6920efaaa16p-4'),
        ('0x1.8000000000000p+3', '0x1.ad1ca67683553p-4', '0x1.aa6920efaaa14p-4'),
        ('0x1.8000000000001p+3', '0x1.ad1ca67683552p-4', '0x1.aa6920efaaa14p-4'),
        ('0x0.0p+0', '0x1.5555555555555p+0', '0x0.0p+0'),
        ('nan', 'nan', 'nan'),
    ],
}


@pytest.mark.parametrize("name", list(BOUNDARY_BITS))
def test_boundary_bits(name):
    """Every kernel keeps its bits at its splits and domain edges, and its
    return types: a float or complex for a scalar or 0-d input (the ramp
    kernel takes arrays only), an array of the input's shape otherwise."""
    fn = getattr(phasematch if name == "_ramp_kernel" else numerics, name)
    pins = BOUNDARY_BITS[name]
    got = fn(np.array([float.fromhex(row[0]) for row in pins])).tolist()
    assert [(v.hex(),) if type(v) is float else (v.real.hex(), v.imag.hex()) for v in got] == [
        row[1:] for row in pins
    ]
    kind = complex if len(pins[0]) == 3 else float
    grid = fn(np.full((2, 3), 2.5))
    assert type(grid) is np.ndarray and grid.shape == (2, 3) and grid.dtype == kind
    if name == "_ramp_kernel":
        zero_d = fn(np.array(2.5))
        assert type(zero_d) is np.ndarray and zero_d.shape == () and zero_d.dtype == complex
    else:
        assert type(fn(2.5)) is kind and type(fn(np.array(2.5))) is kind


def _log_uniform(signed):
    # 20,000 seeded points with 1e-12 <= |x| <= 1e8
    rng = np.random.default_rng(23)
    x = 10.0 ** rng.uniform(-12.0, 8.0, 20000)
    return x * rng.choice([-1.0, 1.0], x.size) if signed else x


def _momentum_marginal(model):
    return phasematch.momentum_radial_density(CrystalParams(L=1000.0, k_p=10.0), model).marginal


# Each kernel and an input of at least 20,000 points: past numpy's
# temporary-elision threshold for a complex result
CALL_SIZE_CASES = {
    "sine_integral": lambda: (sine_integral, _log_uniform(signed=False)),
    "exp1_i": lambda: (exp1_i, _log_uniform(signed=True)),
    "fresnel": lambda: (fresnel, _log_uniform(signed=True)),
    "bessel_j0": lambda: (bessel_j0, _log_uniform(signed=True)),
    "_ramp_kernel": lambda: (phasematch._ramp_kernel, np.linspace(1.0, 16.0, 20000)),
    "marginal_sinc": lambda: (_momentum_marginal(phasematch.EXACT_SINC), np.linspace(0.0, 0.6, 20001)),
    "marginal_alternating": lambda: (
        _momentum_marginal(phasematch.PhaseMatchModel.from_profile(phasematch.NonlinearityProfile.alternating(2, 500.0))),
        np.linspace(0.0, 0.6, 20001),
    ),
}


@pytest.mark.parametrize("name", list(CALL_SIZE_CASES))
def test_bits_independent_of_call_size(name):
    """An array input returns a new array of its shape that the caller
    owns, and its bits do not depend on how many points the call holds:
    one call equals its 1,000-point slices word for word."""
    fn, x = CALL_SIZE_CASES[name]()
    whole = fn(x)
    sliced = np.concatenate([fn(x[k:k + 1000]) for k in range(0, x.size, 1000)])
    assert np.array_equal(whole.view(np.uint64), sliced.view(np.uint64))
    assert whole.base is None
    grid = fn(x[:1200].reshape(30, 40))
    assert grid.shape == (30, 40) and grid.base is None


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


def _exact(n, num, den):
    # i^n num/den as its exact (real, imaginary) parts
    r = Fraction(num, den)
    return [(r, 0), (0, r), (-r, 0), (0, -r)][n % 4]


_F = math.factorial
# every power-series table and its exact coefficients
SERIES_TABLES = [
    (numerics, "_SI_SERIES", [_exact(2 * k, 1, (2 * k + 1) * _F(2 * k + 1)) for k in range(21)]),
    (numerics, "_CI_SERIES", [(0, 0)] + [_exact(2 * k, 1, 2 * k * _F(2 * k)) for k in range(1, 21)]),
    (numerics, "_FRESNEL_SERIES", [_exact(n, 1, _F(n) * (2 * n + 1)) for n in range(41)]),
    (phasematch, "_RAMP_SERIES", [_exact(n, 4, _F(n) * (2 * n + 1) * (2 * n + 3)) for n in range(20)]),
    (numerics, "_J0_SERIES", [_exact(0, 1, _F(k) ** 2) for k in range(42)]),
]


@pytest.mark.parametrize("module,name,exact", SERIES_TABLES, ids=[name for _, name, _ in SERIES_TABLES])
def test_series_coefficients_rounded_once(module, name, exact):
    # each real and imaginary part is its exact fraction rounded once
    table = getattr(module, name)
    assert [(complex(c).real, complex(c).imag) for c in table] == [(float(a), float(b)) for a, b in exact]


class TestBesselJ0:
    def test_against_scipy(self):
        # check_si_vs_hankel reaches q rho ~ 224; [0, 2000] covers that
        # with margin and runs the large-x form far past its split at 12
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


def _gauss_samples(r_max, n):
    q = midpoints(r_max, n)
    return np.exp(-q * q)


class TestHankel0:
    def test_gaussian_self_transform(self):
        # f(q) = exp(-q^2)  ->  exp(-rho^2/4) / (4 pi)
        f = _gauss_samples(25.0, 4096)
        for rho in (0.0, 0.5, 1.3, 2.7, 4.0):
            want = math.exp(-rho * rho / 4.0) / (4.0 * math.pi)
            assert abs(hankel0(f, 25.0, rho) - want) < 1e-6  # observed ~2.5e-7

    def test_midpoint_layout(self):
        # one unit sample k reads q_k J0(q_k rho) h / 2 pi, q_k = (k + 1/2) h
        n, r_max = 32, 2.0
        h = r_max / n
        for k in (0, 1, 17, 31):
            q_k = (k + 0.5) * h
            for rho in (0.0, 1.0):
                want = q_k * float(bessel_j0(q_k * rho)) * h / (2.0 * math.pi)
                assert hankel0(np.eye(n)[k], r_max, rho) == pytest.approx(want, rel=1e-15)

    def test_too_few_samples(self):
        hankel0(np.ones(16), 1.0, 0.5)  # 16 is enough
        for bad in (np.ones(15), np.ones((4, 4)), 1.0):
            with pytest.raises(GridTooCoarse, match="at least 16 one-dimensional samples"):
                hankel0(bad, 1.0, 0.5)
        with pytest.raises(GridTooCoarse):  # checked before the radius
            hankel0(np.ones(15), 1.0, -1.0)

    def test_bad_r_max(self):
        # an infinite r_max would give NaN at rho = 0 and OverflowError beyond
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveParameter, match="r_max"):
                hankel0(np.ones(32), bad, 0.5)
        with pytest.raises(NonPositiveParameter):  # checked before the samples and the radius
            hankel0(np.ones(15), 0.0, -1.0)

    def test_negative_rho(self):
        f = _gauss_samples(10.0, 64)
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(NegativeArgument, match="finite rho >= 0"):
                hankel0(f, 10.0, bad)
            with pytest.raises(NegativeArgument, match=f"got {bad!r}"):
                hankel0(f, 10.0, np.array([0.5, bad, 1.0]))

    def test_oscillation_guard(self):
        with pytest.raises(GridTooCoarse) as exc_info:
            hankel0(_gauss_samples(30.0, 64), 30.0, 10.0)
        needed = exc_info.value.suggested_count
        assert needed is not None and needed > 64
        hankel0(_gauss_samples(30.0, int(needed)), 30.0, 10.0)  # must not raise

    def test_array_matches_scalar_calls(self):
        f = _gauss_samples(25.0, 4096)
        rhos = np.array([[0.0, 0.5, 1.3], [2.7, 4.0, 0.5]])
        out = hankel0(f, 25.0, rhos)
        assert out.shape == rhos.shape
        want = np.array([[hankel0(f, 25.0, float(r)) for r in row] for row in rhos])
        assert out.tobytes() == want.tobytes()
        assert type(hankel0(f, 25.0, 1.3)) is float and type(hankel0(f, 25.0, np.array(1.3))) is float
        assert hankel0(f, 25.0, np.array([])).shape == (0,)

    def test_guard_reads_largest_radius(self):
        f = _gauss_samples(30.0, 64)
        hankel0(f, 30.0, np.array([0.0, 1.0, 2.0]))  # all resolved
        with pytest.raises(GridTooCoarse) as exc_info:
            hankel0(f, 30.0, np.array([0.0, 1.0, 10.0, 2.0]))
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
