"""Rows of the accuracy frontier: the presets' a, N and h at higher order.

At M = 6 the presets need a large sigma (5) to damp the expansion's first
replica, e^(-sigma 2^M h), and rounding in the damped samples then meets it
near 1e-11.  With a = 2, N = 55 and h = 0.078 kept, a higher M lengthens the
period, so sigma can fall and both terms shrink: at M = 9 and sigma = 1 the
replica is e^(-39.9) = 4.6e-18.  Each bound below is twice the measured
figure, rounded up; the figures are recorded next to the bounds.
"""

import math

import numpy as np
import pytest

from ratfourier import Direction, ReferenceKind, TargetKind, VoigtPoint, error_scan, voigt_residue

from conftest import build_coefficients

TWO_PI = 2.0 * math.pi


def _frontier(M, sigma):
    return dict(a=2.0, M=M, N=55, h=0.078, sigma=sigma)


# measured max_abs_diff on 1000 points over [-2 pi, 2 pi]:
# M = 8, sigma = 2: 7.77e-16, 1.67e-15, 1.67e-15
# M = 9, sigma = 1: 1.94e-16, 4.44e-16, 4.44e-16
@pytest.mark.parametrize("M, sigma, bounds", [(8, 2.0, (1.6e-15, 3.4e-15, 3.4e-15)),
                                              (9, 1.0, (3.9e-16, 8.9e-16, 8.9e-16))])
def test_frontier_scans(M, sigma, bounds):
    cases = ((TargetKind.GAUSSIAN_DERIVATIVE, Direction.FORWARD, ReferenceKind.NU_GAUSS),
             (TargetKind.GAUSSIAN, Direction.FORWARD, ReferenceKind.GAUSS),
             (TargetKind.GAUSSIAN, Direction.INVERSE, ReferenceKind.GAUSS))
    for (target, direction, ref), bound in zip(cases, bounds):
        coeffs = build_coefficients(_frontier(M, sigma), target, direction)
        assert error_scan(coeffs, ref, -TWO_PI, TWO_PI, 1000).max_abs_diff <= bound


@pytest.fixture(scope="module")
def frontier_gauss():
    return build_coefficients(_frontier(9, 1.0), TargetKind.GAUSSIAN)


# measured worst |residue - wofz| on 251 x in [-2 pi, 2 pi]: 2.78e-16,
# 6.11e-16, 6.66e-16 and 5.55e-16, against 4.4e-16 to 1.47e-11 at the preset
@pytest.mark.parametrize("y, bound", [(1.0, 5.6e-16), (0.1, 1.3e-15), (0.01, 1.4e-15),
                                      (1e-4, 1.2e-15)])
def test_frontier_voigt_residue(frontier_gauss, y, bound):
    # small y no longer brings the error up to a replica floor: at this set
    # the floor is rounding
    from scipy.special import wofz

    xs = np.linspace(-TWO_PI, TWO_PI, 251)
    exact = wofz(xs + 1j * y).real
    approx = np.array([voigt_residue(frontier_gauss, VoigtPoint(x, y)) for x in xs.tolist()])
    assert np.max(np.abs(approx - exact)) <= bound
