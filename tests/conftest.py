"""Shared fixtures: the two flagship parameter sets, their coefficient sets and
the hypothesis profile."""

import warnings

import pytest
from hypothesis import settings

from ratfourier import (
    ApproxParams,
    Direction,
    GridCoverageWarning,
    TargetKind,
    compute_coefficients,
    sample_grid,
)

# property tests draw the same examples on every run, and a slow example on
# a loaded host is not a failure
settings.register_profile("ratfourier", deadline=None, derandomize=True)
settings.load_profile("ratfourier")

SINC_PARAMS = dict(a=0.6, M=6, N=28, h=0.04, sigma=2.7, k=35)
GDER_PARAMS = dict(a=2.0, M=6, N=55, h=0.078, sigma=5.0)


def build_coefficients(params_kwargs, target, direction=Direction.FORWARD):
    """Build a CoefficientSet, silencing the intentional short-grid warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridCoverageWarning)
        params = ApproxParams(**params_kwargs)
        samples = sample_grid(target, params)
    return compute_coefficients(samples, direction)


@pytest.fixture(scope="session")
def sinc_coeffs():
    return build_coefficients(SINC_PARAMS, TargetKind.RECT_SURROGATE)


@pytest.fixture(scope="session")
def gder_coeffs():
    return build_coefficients(GDER_PARAMS, TargetKind.GAUSSIAN_DERIVATIVE)


@pytest.fixture(scope="session")
def gauss_forward_coeffs():
    return build_coefficients(GDER_PARAMS, TargetKind.GAUSSIAN)


@pytest.fixture(scope="session")
def gauss_inverse_coeffs():
    return build_coefficients(GDER_PARAMS, TargetKind.GAUSSIAN, Direction.INVERSE)
