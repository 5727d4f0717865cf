"""Pole-residue Voigt evaluator against quadrature and closed forms."""

import math

import numpy as np
import pytest

from ratfourier import (
    DirectionError,
    PoleError,
    RangeError,
    ReferenceKind,
    TargetKind,
    VoigtPoint,
    error_scan,
    voigt_quadrature,
    voigt_residue,
    voigt_residue_complex,
)
from ratfourier import voigt as voigt_module

import bruteforce
from conftest import build_coefficients, coverage_preserving_gder


def test_point_validation():
    for y in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="y > 0"):
            VoigtPoint(x=1.0, y=y)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="x must be finite"):
            VoigtPoint(x=x, y=1.0)
    p = VoigtPoint(np.float64(0.5), np.float64(0.25))
    assert type(p.x) is float and type(p.y) is float


def test_centre_point_closed_form(gauss_forward_coeffs):
    # K(0, 1) = e * erfc(1)
    value = voigt_residue(gauss_forward_coeffs, VoigtPoint(0.0, 1.0))
    assert abs(value - math.e * math.erfc(1.0)) <= 1e-13
    assert value == pytest.approx(0.42758357615580705, rel=1e-13)


def test_residue_imaginary_part_is_noise(gauss_forward_coeffs):
    for x in (0.0, 1.3, -4.0):
        z = voigt_residue_complex(gauss_forward_coeffs, VoigtPoint(x, 1.0))
        assert abs(z.imag) <= 1e-15
        # voigt_residue sums only the terms that make up the real part
        assert voigt_residue(gauss_forward_coeffs, VoigtPoint(x, 1.0)) == z.real


def test_residue_matches_quadrature(gauss_forward_coeffs):
    for x, y in ((0.5, 0.8), (2.0, 1.0), (5.5, 1.0)):
        p = VoigtPoint(x, y)
        approx = voigt_residue(gauss_forward_coeffs, p)
        ref = voigt_quadrature(p, tol=1e-14)
        assert abs(approx - ref) <= 1e-12


# measured max relative error on this grid: 1.59e-14, 2.25e-11, 9.41e-10, 9.02e-8
@pytest.mark.parametrize("y, bound", [(1.0, 3e-14), (0.1, 3e-11), (0.01, 1.2e-9),
                                      (1e-4, 1.2e-7)])
def test_residue_against_wofz(gauss_forward_coeffs, y, bound):
    # K(x, y) = Re w(x + iy), the Faddeeva function, on 251 x in [-2 pi, 2 pi]
    from scipy.special import wofz

    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251)
    exact = wofz(xs + 1j * y).real
    approx = np.array([voigt_residue(gauss_forward_coeffs, VoigtPoint(x, y))
                       for x in xs.tolist()])
    assert np.max(np.abs(approx - exact) / exact) <= bound


@pytest.fixture(scope="module")
def gaussian_floor(gauss_forward_coeffs):
    # sup |Re F_G(nu) - e^(-nu^2)| over |nu| <= 120 (past |nu| = 10 the error
    # stays below 2e-13); the sup is a narrow peak at nu = 0 that a 48,001-point
    # grid undershoots enough to fail at y = 1e-4, and 480,001 points do not
    return error_scan(gauss_forward_coeffs, ReferenceKind.GAUSS, -120.0, 120.0, 480_001).max_abs_diff


# measured: sup 1.556e-11; errors 4.4e-16, 8.1e-13, 1.07e-11, 1.475e-11
@pytest.mark.parametrize("y", [1.0, 0.1, 0.01, 1e-4])
def test_residue_within_inherited_absolute_bound(gauss_forward_coeffs, gaussian_floor, y):
    # the residue sum is the unit-mass Lorentzian smoothing of Re F_G, so its
    # absolute error cannot exceed the Gaussian approximant's sup error
    from scipy.special import wofz

    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251)
    exact = wofz(xs + 1j * y).real
    approx = np.array([voigt_residue(gauss_forward_coeffs, VoigtPoint(x, y))
                       for x in xs.tolist()])
    assert np.max(np.abs(approx - exact)) <= gaussian_floor


def test_quadrature_frozen_values():
    assert voigt_quadrature(VoigtPoint(2.0, 1.0), 1e-14) == pytest.approx(
        0.14023958136627795, rel=1e-12)
    assert voigt_quadrature(VoigtPoint(5.5, 1.0), 1e-14) == pytest.approx(
        0.018951069507147724, rel=1e-12)
    assert voigt_quadrature(VoigtPoint(0.0, 100.0), 1e-14) == pytest.approx(
        0.005641613782989433, rel=1e-12)


# measured worst |quadrature - mpmath| on this grid: 5.6e-17, 1.1e-16, 3.9e-16,
# 2.6e-14 (one panel at a time, before the rounds: 5.6e-17, 2.2e-16, 3.9e-16,
# 2.8e-14); each bound is twice the larger figure.  At y = 1e-4 the error is
# 2.6 times tol, so tol is not a bound on it
@pytest.mark.parametrize("y, bound", [(1.0, 1.1e-16), (0.1, 4.4e-16), (0.01, 7.8e-16),
                                      (1e-4, 5.6e-14)])
def test_quadrature_against_mpmath(y, bound):
    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251).tolist()
    exact = np.array([bruteforce.mpmath_voigt(x, y) for x in xs])
    ref = np.array([voigt_quadrature(VoigtPoint(x, y), 1e-14) for x in xs])
    assert np.max(np.abs(ref - exact)) <= bound


def test_small_y_quadrature_takes_few_rounds(monkeypatch):
    # the peak of width y = 1e-4 took about 18 integrand calls per point when
    # the engine bisected one panel per call; a round bisects every panel it
    # needs at once (measured: 2.24 calls per point, at most 4)
    integrate = voigt_module.integrate
    runs = []

    def counting_integrate(f, *args, **kwargs):
        calls = [0]

        def counted(t):
            calls[0] += 1
            return f(t)

        result = integrate(counted, *args, **kwargs)
        runs.append((calls[0], result))
        return result

    monkeypatch.setattr(voigt_module, "integrate", counting_integrate)
    for x in np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251).tolist():
        voigt_quadrature(VoigtPoint(x, 1e-4), 1e-14)
    calls = [c for c, _ in runs]
    assert np.mean(calls) <= 3.0 and max(calls) <= 5
    # the first call evaluates the initial panels, each later one is a round
    assert [result.rounds for _, result in runs] == [c - 1 for c in calls]


def test_far_wing_asymptote():
    x = 1e6
    value = voigt_quadrature(VoigtPoint(x, 1.0), 1e-14)
    assert value == pytest.approx(1.0 / (math.sqrt(math.pi) * x * x), rel=1e-9)


def test_symmetry_in_x(gauss_forward_coeffs):
    for x in (0.7, 3.1):
        left = voigt_residue(gauss_forward_coeffs, VoigtPoint(-x, 1.0))
        right = voigt_residue(gauss_forward_coeffs, VoigtPoint(x, 1.0))
        assert abs(left - right) <= 1e-14


def test_positivity(gauss_forward_coeffs):
    for x in np.linspace(-10.0, 10.0, 21):
        for y in (0.2, 1.0, 5.0):
            assert voigt_residue(gauss_forward_coeffs, VoigtPoint(x, y)) > 0.0


def test_requires_forward_gaussian(sinc_coeffs, gauss_inverse_coeffs):
    p = VoigtPoint(1.0, 1.0)
    with pytest.raises(DirectionError):
        voigt_residue(gauss_inverse_coeffs, p)
    with pytest.raises(ValueError):
        voigt_residue(sinc_coeffs, p)


def test_residue_pole_is_reported(gauss_forward_coeffs):
    # x + i y = (gamma_1 + i sigma) / (2 pi) collapses the third residue denominator
    g, sigma = gauss_forward_coeffs.gamma[0], gauss_forward_coeffs.params.sigma
    with pytest.raises(PoleError):
        voigt_residue(gauss_forward_coeffs,
                      VoigtPoint(g / (2.0 * math.pi), sigma / (2.0 * math.pi)))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_residue_pole_where_the_bounds_vanish(gauss_forward_coeffs, sign):
    # 2 pi y = sigma zeroes both pole bounds.  x = -gamma_1 / (2 pi) is a pole
    # of the first denominator and x = +gamma_1 / (2 pi) one of the second;
    # both are poles of the third too, which is the one that computes to 0
    g, sigma = gauss_forward_coeffs.gamma[0], gauss_forward_coeffs.params.sigma
    p = VoigtPoint(sign * g / (2.0 * math.pi), sigma / (2.0 * math.pi))
    with pytest.raises(PoleError):
        voigt_residue(gauss_forward_coeffs, p)
    with pytest.raises(PoleError):
        voigt_residue_complex(gauss_forward_coeffs, p)


# measured edges: at y = 1 the refusal starts at x = 3.14866e152 (M = 6) and
# 8.36938e151 (M = 10), at x = 0 at y = 8.98239e101 at both orders
@pytest.mark.parametrize("M, below, above", [
    (6, VoigtPoint(3.1486e152, 1.0), VoigtPoint(3.1487e152, 1.0)),
    (10, VoigtPoint(-8.369e151, 1.0), VoigtPoint(-8.370e151, 1.0)),
    (6, VoigtPoint(0.0, 8.982e101), VoigtPoint(0.0, 8.983e101)),
    (10, VoigtPoint(0.0, 8.982e101), VoigtPoint(0.0, 8.983e101)),
])
def test_residue_refuses_past_its_overflow_edge(M, below, above):
    # past the edge a denominator would overflow and drop terms or give NaN;
    # below it the absolute bound holds against the far-wing asymptote
    # K ~ y / (sqrt(pi) (x^2 + y^2)), whose own error there is below 1e-200
    coeffs = build_coefficients(coverage_preserving_gder(M), TargetKind.GAUSSIAN)
    wing = below.y / (math.sqrt(math.pi) * (below.x * below.x + below.y * below.y))
    assert abs(voigt_residue(coeffs, below) - wing) <= 1.56e-11
    # numpy scalars give the same bits below the edge and the RangeError
    # alone past it: no numpy overflow warning (an error here) comes first
    below64 = VoigtPoint(np.float64(below.x), np.float64(below.y))
    assert voigt_residue(coeffs, below64).hex() == voigt_residue(coeffs, below).hex()
    for p in (above, VoigtPoint(np.float64(above.x), np.float64(above.y))):
        for residue in (voigt_residue, voigt_residue_complex):
            with pytest.raises(RangeError, match="too large"):
                residue(coeffs, p)


def test_quadrature_tolerance_floor():
    for tol in (1e-16, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol >= 1e-15"):
            voigt_quadrature(VoigtPoint(0.0, 1.0), tol)

