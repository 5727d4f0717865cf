"""Pole-residue Voigt evaluator against quadrature and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _mpmath_on_grid(y):
    """251 x in [-2 pi, 2 pi] and K(x, y) there in 40-digit mpmath."""
    if y not in _MPMATH_GRIDS:
        xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251).tolist()
        _MPMATH_GRIDS[y] = xs, np.array([bruteforce.mpmath_voigt(x, y) for x in xs])
    return _MPMATH_GRIDS[y]


_MPMATH_GRIDS = {}


# measured worst |quadrature - mpmath| on this grid at y = 1, 0.5, 2 and 10:
# 5.55e-17, 1.11e-16, 5.55e-17 and 1.39e-17, with width-1 initial panels
# and with the tol-derived cap alike; each bound is twice its figure.  The
# rows at y = 0.1, 0.01 and 1e-4 hold the bounds the plain integrand was
# held to (it gave 1.11e-16, 3.89e-16 and 2.59e-14 there);
# test_small_y_quadrature_against_mpmath holds the subtracted form to
# tighter ones
@pytest.mark.parametrize("y, bound", [(1.0, 1.1e-16), (0.1, 4.4e-16), (0.01, 7.8e-16),
                                      (1e-4, 5.6e-14), (0.5, 2.2e-16), (2.0, 1.1e-16),
                                      (10.0, 2.8e-17)])
def test_quadrature_against_mpmath(y, bound):
    xs, exact = _mpmath_on_grid(y)
    ref = np.array([voigt_quadrature(VoigtPoint(x, y), 1e-14) for x in xs])
    assert np.max(np.abs(ref - exact)) <= bound


# below y = 0.12 the peak's Taylor part is integrated in closed form:
# measured worst 1.11e-16, 1.35e-16, 1.56e-16 and 1.58e-16 at y = 0.1,
# 0.01, 1e-3 and from 1e-4 to 1e-8 (the plain integrand gave 1.11e-16,
# 3.89e-16, 1.08e-14, 2.59e-14, 1.63e-12 at 1e-6 and 7.78e-12 at 1e-8, up
# to 778 times tol); each bound is twice the figure, rounded up
@pytest.mark.parametrize("y, bound", [(0.1, 2.2e-16), (0.01, 2.7e-16), (1e-3, 3.2e-16),
                                      (1e-4, 3.2e-16), (1e-6, 3.2e-16), (1e-8, 3.2e-16)])
def test_small_y_quadrature_against_mpmath(y, bound):
    xs, exact = _mpmath_on_grid(y)
    ref = np.array([voigt_quadrature(VoigtPoint(x, y), 1e-14) for x in xs])
    assert np.max(np.abs(ref - exact)) <= bound


def test_small_y_quadrature_takes_few_rounds(monkeypatch):
    # the peak of width y = 1e-4 took about 18 integrand calls per point when
    # the engine bisected one panel per call, and 2.24 (at most 4) once a
    # round bisected every panel it needed at once; with the peak's Taylor
    # part taken out in closed form what is left is smooth, and every point
    # takes one call
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
    assert calls == [1] * 251
    # the first call evaluates the initial panels, each later one is a round
    assert [result.rounds for _, result in runs] == [c - 1 for c in calls]


def _spy_on_integrate(monkeypatch):
    """Record the QuadratureResult and the max_width of every integrate call."""
    integrate = voigt_module.integrate
    runs = []

    def spy(*args, **kwargs):
        result = integrate(*args, **kwargs)
        runs.append((kwargs["max_width"], result))
        return result

    monkeypatch.setattr(voigt_module, "integrate", spy)
    return runs


@pytest.mark.parametrize("y", [1.0, 2.0, 10.0])
def test_wide_lorentzian_quadrature_meets_tol_on_the_first_batch(y, monkeypatch):
    # width-1 panels left 0 of 251 points at y = 2 and 10 and 60 at y = 1 on
    # their first batch; the tol-derived cap resolves the Gaussian factor and
    # the innermost panels next to the pole at x + iy at once
    runs = _spy_on_integrate(monkeypatch)
    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251).tolist() + [7.0, -7.0, 50.0, -50.0]
    for x in xs:
        voigt_quadrature(VoigtPoint(x, y), 1e-14)
    assert [result.rounds for _, result in runs] == [0] * len(xs)


@pytest.mark.parametrize("tol", [1e-15, 1e-14, 1e-10])
@pytest.mark.parametrize("y", [1e-4, 1e-6])
def test_small_y_quadrature_meets_tol_on_the_first_batch(y, tol, monkeypatch):
    # the plain integrand took up to 6 rounds at y = 1e-4 and 15 at 1e-6
    # (tol 1e-15); less its Taylor part at the peak it is smooth at the
    # scale of the breakpoint cascade
    runs = _spy_on_integrate(monkeypatch)
    for x in np.linspace(-2.0 * math.pi, 2.0 * math.pi, 251).tolist():
        voigt_quadrature(VoigtPoint(x, y), tol)
    assert [result.rounds for _, result in runs] == [0] * 251


def test_quadrature_at_tiny_y_and_the_floor_tolerance(monkeypatch):
    # the plain integrand exhausted the panel budget here after about 6 s:
    # at y = 1e-8 the rounding of the nodes next to x = -0.5 is a relative
    # 1e-8 of the innermost panels, and the estimate stalls above tol
    runs = _spy_on_integrate(monkeypatch)
    value = voigt_quadrature(VoigtPoint(-0.5, 1e-8), 1e-15)
    assert abs(value - bruteforce.mpmath_voigt(-0.5, 1e-8)) <= 2.2e-16
    assert runs[0][1].rounds == 0


def _plain_quadrature(p, tol):
    """voigt_quadrature with the plain integrand, which it keeps from y = 0.12 up."""
    x, y = p.x, p.y
    L, max_width = voigt_module._mesh(tol, y)

    def integrand(tau):
        return (y / math.pi) * np.exp(-tau * tau) / (y * y + (x - tau) ** 2)

    breakpoints = []
    if -L < x < L:
        width = y
        while width < 2.0:
            breakpoints.extend((x - width, x + width))
            width *= 3.0
        breakpoints.append(x)
    return voigt_module.integrate(integrand, -L, L, tol, breakpoints=breakpoints,
                                  max_width=max_width).value.real


_TOLS = st.sampled_from([1e-15, 1e-14, 1e-12, 1e-10, 1e-6])


@settings(max_examples=100)
@given(x=st.floats(-12.0, 12.0), tol=_TOLS,
       y=st.one_of(st.just(voigt_module._SUBTRACT_BELOW),
                   st.floats(voigt_module._SUBTRACT_BELOW, 300.0)))
def test_quadrature_from_the_threshold_up_is_the_plain_integral(x, y, tol):
    p = VoigtPoint(x, y)
    assert voigt_quadrature(p, tol).hex() == _plain_quadrature(p, tol).hex()


@settings(max_examples=100)
@given(x=st.floats(-8.0, 8.0), tol=st.sampled_from([1e-15, 1e-14, 1e-10]),
       log_y=st.floats(-8.0, math.log10(0.12)))
def test_quadrature_below_the_threshold_against_mpmath(x, log_y, tol):
    # as in the table above, where the worst error is 1.58e-16
    y = 10.0 ** log_y
    if y >= voigt_module._SUBTRACT_BELOW:
        y = math.nextafter(voigt_module._SUBTRACT_BELOW, 0.0)
    value = voigt_quadrature(VoigtPoint(x, y), tol)
    assert abs(value - bruteforce.mpmath_voigt(x, y)) <= 3.2e-16


@pytest.mark.parametrize("tol", [1e-15, 1e-14, 1e-12, 1e-8])
def test_quadrature_panel_cap_is_one_below_y_04(tol, monkeypatch):
    # there the cap would add more panels than the round it saves costs, so
    # those points keep the width-1 mesh
    runs = _spy_on_integrate(monkeypatch)
    for y in (1e-4, 0.01, 0.1, 0.399):
        voigt_quadrature(VoigtPoint(0.5, y), tol)
    assert [max_width for max_width, _ in runs] == [1.0] * 4


def test_quadrature_cutoff_matches_the_search_it_replaces():
    # L in closed form against the loop L = 1, 2, ... until e^(-L^2) <= tol/10,
    # on a log-uniform sweep and around each boundary tol = 10 e^(-k^2)
    def searched(tol):
        L = 1.0
        while math.exp(-L * L) > tol / 10.0:
            L += 1.0
        return L

    rng = np.random.default_rng(7)
    tols = (10.0 ** rng.uniform(-15.0, 0.0, 20_000)).tolist()
    for k in range(1, 7):
        edge = 10.0 * math.exp(-k * k)
        tols += [edge, edge * (1.0 + 1e-15), edge * (1.0 - 1e-15)]
    tols += [1e-15, 1.0, 3.0, 10.0, 1e300]
    assert [voigt_module._mesh(tol, 1.0)[0] for tol in tols] == [searched(tol) for tol in tols]


@pytest.mark.parametrize("tol, L", [(1e-14, 6.0), (1e-15, 7.0)])
def test_quadrature_cutoff_is_the_gaussian_envelope(tol, L, monkeypatch):
    # [-L, L] with L the smallest integer where e^(-L^2) <= tol/10, whatever y
    integrate = voigt_module.integrate
    limits = []

    def spy(f, lo, hi, *args, **kwargs):
        limits.append((lo, hi))
        return integrate(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(voigt_module, "integrate", spy)
    for y in (1e-4, 0.01, 0.1, 1.0, 100.0, 1e100):
        voigt_quadrature(VoigtPoint(0.5, y), tol)
    assert limits == [(-L, L)] * 6


@pytest.mark.parametrize("y", [1e3, 1e5, 1e10, 1e50, 1e100, 1e150])
def test_quadrature_is_relative_at_huge_y(y):
    # K < tol here, yet the Lorentzian is flat across [-L, L], so the
    # truncated share of K is about erfc(6) = 2.2e-17.  wofz (within 2.2e-16
    # of 1/(sqrt(pi) y) from y = 1e10 up) is the reference; 40-digit mpmath
    # cancels in e^(-z^2) erfc(-iz) at these y
    from scipy.special import wofz

    for x in (0.0, 3.0, 50.0):
        exact = wofz(x + 1j * y).real
        assert abs(voigt_quadrature(VoigtPoint(x, y), 1e-14) - exact) <= 4.4e-16 * exact


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadrature_refuses_past_its_overflow_edge():
    # y^2 + (|x| + L)^2 overflows from y or |x| = 1.3408e154 at x = 0 or
    # y = 1; past it every node would be 0 (and x^2 would warn in numpy)
    for p in (VoigtPoint(0.0, 1.35e154), VoigtPoint(0.0, 1e300), VoigtPoint(1e155, 1.0)):
        with pytest.raises(RangeError, match="too large"):
            voigt_quadrature(p, 1e-14)
    from scipy.special import wofz

    exact = wofz(1.34e154j).real
    assert abs(voigt_quadrature(VoigtPoint(0.0, 1.34e154), 1e-14) - exact) <= 4.4e-16 * exact


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

