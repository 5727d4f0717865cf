"""Quadrature oracles: QuadratureSpec validation, transform pairs, guards."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from ratfourier import (
    DampingError,
    DirectionError,
    QuadratureSpec,
    RangeError,
    TargetKind,
    damped_expansion_quadrature,
    eval_forward,
    fourier_forward_quadrature,
)

import bruteforce
from conftest import (
    GDER_PARAMS, SINC_PARAMS, build_coefficients, coverage_preserving_gder,
)

SPEC = QuadratureSpec(lo=-8.0, hi=8.0, tol=1e-12)
# the tolerance of criterion 7 and of the benchmark's expansion checks
ORACLE_SPEC = QuadratureSpec(lo=-8.0, hi=8.0, tol=1e-10)


# --- QuadratureSpec -------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lo=1.0, hi=1.0, tol=1e-12),
        dict(lo=2.0, hi=-2.0, tol=1e-12),
        dict(lo=-8.0, hi=8.0, tol=1e-16),
        dict(lo=-math.inf, hi=0.0, tol=1e-12),
        dict(lo=0.0, hi=math.inf, tol=1e-12),
        dict(lo=math.nan, hi=8.0, tol=1e-12),
        dict(lo=-1e308, hi=1e308, tol=1e-12),
        dict(lo=-8.0, hi=8.0, tol=math.inf),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


# --- direct transform oracle ----------------------------------------------

def test_gaussian_pair_frozen_point():
    value = fourier_forward_quadrature(TargetKind.GAUSSIAN, 0.0, 1.0, SPEC)
    assert value.real == pytest.approx(math.exp(-1.0), abs=1e-13)
    assert abs(value.imag) <= 1e-13


def test_gaussian_pair_at_several_frequencies():
    for nu in (0.0, -0.7, 2.2):
        value = fourier_forward_quadrature(TargetKind.GAUSSIAN, 0.0, nu, SPEC)
        assert abs(value - math.exp(-nu * nu)) <= 1e-12


def test_shift_produces_linear_phase():
    nu, shift = 0.3, 0.5
    value = fourier_forward_quadrature(TargetKind.GAUSSIAN, shift, nu, SPEC)
    expected = cmath.exp(-2j * math.pi * nu * shift) * math.exp(-nu * nu)
    assert abs(value - expected) <= 1e-12


def test_surrogate_transform_sits_near_the_rect_transform():
    nu, shift = 0.5, 0.6
    value = fourier_forward_quadrature(TargetKind.RECT_SURROGATE, shift, nu, SPEC)
    assert value.real == pytest.approx(-0.19656320595309573, rel=1e-9)
    assert value.imag == pytest.approx(-0.60495934297623155, rel=1e-9)
    # the smooth surrogate's transform differs from the hard-edged rect's
    # e^(-2 pi i nu a) sinc(pi nu) by a small but genuine margin
    rect = cmath.exp(-2j * math.pi * nu * shift) * (
        math.sin(math.pi * nu) / (math.pi * nu)
    )
    assert 1e-5 < abs(value - rect) < 1e-3


def test_frequency_guard():
    for nu in (150.0, math.nan):
        with pytest.raises(RangeError):
            fourier_forward_quadrature(TargetKind.GAUSSIAN, 0.0, nu, SPEC)


# --- damped expansion oracle ------------------------------------------------

def test_expansion_integral_matches_pole_residue_form(sinc_coeffs):
    nu = 0.3
    a = sinc_coeffs.params.a
    integral = damped_expansion_quadrature(sinc_coeffs, nu, math.inf, SPEC)
    rational = eval_forward(sinc_coeffs, nu) * cmath.exp(-2j * math.pi * nu * a)
    assert abs(integral - rational) <= 1e-10


def test_expansion_needs_forward_coefficients(gauss_inverse_coeffs):
    with pytest.raises(DirectionError):
        damped_expansion_quadrature(gauss_inverse_coeffs, 0.3, math.inf, SPEC)


def test_undamped_expansion_cannot_reach_infinity():
    undamped = build_coefficients(dict(GDER_PARAMS, sigma=0.0),
                                  TargetKind.GAUSSIAN)
    with pytest.raises(DampingError):
        damped_expansion_quadrature(undamped, 0.3, math.inf, SPEC)
    # a finite upper limit is still legal without damping
    value = damped_expansion_quadrature(undamped, 0.3, 4.0, SPEC)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_expansion_upper_limit_validation(sinc_coeffs):
    with pytest.raises(ValueError, match="upper > 0"):
        damped_expansion_quadrature(sinc_coeffs, 0.3, -1.0, SPEC)
    with pytest.raises(RangeError):
        damped_expansion_quadrature(sinc_coeffs, 150.0, math.inf, SPEC)


def test_expansion_refuses_minus_infinity(sinc_coeffs):
    # only +inf means the damped [0, inf) integral; -inf is a negative limit
    with pytest.raises(ValueError, match="upper > 0"):
        damped_expansion_quadrature(sinc_coeffs, 0.5, -math.inf, SPEC)


# (params, target, nu values); above |nu| = 2.42 (sinc) or 1.24 (gauss-
# derivative) the oscillation cap 1/(8|nu|), not 4/gamma_max, sets the panels
_EXPANSION_CASES = {
    **{f"sinc-sigma{s}": (dict(SINC_PARAMS, sigma=s), TargetKind.RECT_SURROGATE,
                          (0.0, 0.37, 2.5, -3.3, 6.2))
       for s in (1.0, 2.7, 5.0)},
    **{f"gder-sigma{s}": (dict(GDER_PARAMS, sigma=s), TargetKind.GAUSSIAN_DERIVATIVE,
                          (0.0, 0.37, 2.5, -3.3, 6.2))
       for s in (1.0, 2.7, 5.0)},
    "gder-M10": (coverage_preserving_gder(10), TargetKind.GAUSSIAN_DERIVATIVE,
                 (0.37, 2.5, 6.2)),
    # one term: the Horner loop does not run
    "gder-M1": (dict(GDER_PARAMS, M=1), TargetKind.GAUSSIAN_DERIVATIVE,
                (0.0, 0.37, 3.3)),
    # alpha and beta scaled by these factors, so that the expansion's real
    # and imaginary parts are both nonzero and each node takes two Horner passes
    "sinc-mixed": (SINC_PARAMS, TargetKind.RECT_SURROGATE, (0.0, 0.37, 2.5, -3.3, 6.2),
                   (1 + 0.5j, 1 - 0.25j)),
}


@pytest.mark.parametrize("case", list(_EXPANSION_CASES))
def test_expansion_against_mpmath(case):
    # each damped term integrated in closed form at 40 digits; measured worst
    # 8.5e-14 (gauss-derivative), so 1e-12 leaves room for rounding alone
    params, target, nus, *scales = _EXPANSION_CASES[case]
    coeffs = build_coefficients(params, target)
    for alpha_scale, beta_scale in scales:
        coeffs = dataclasses.replace(coeffs, alpha=coeffs.alpha * alpha_scale,
                                     beta=coeffs.beta * beta_scale)
    p = coeffs.params
    worst = 0.0
    for nu in nus:
        for upper in (2.0 * p.a, p.period / 2.0, math.inf):
            value = damped_expansion_quadrature(coeffs, nu, upper, ORACLE_SPEC)
            exact = bruteforce.mpmath_damped_expansion(coeffs, nu, upper)
            worst = max(worst, abs(value - exact))
    assert worst <= 1e-12
