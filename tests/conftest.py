"""Shared fixtures: the two flagship parameter sets, their coefficient sets,
the hypothesis profile and the UserWarning filter of tests/."""

import warnings
from pathlib import Path

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


def pytest_collection_modifyitems(items):
    # a UserWarning such as GridCoverageWarning that a test neither silences
    # nor asserts fails it.  The hook sees every collected item, so it marks
    # those under tests/ only (perfbench expects its sinc warnings), and
    # prepends the mark so that a test's or module's own filter wins.
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"),
                            append=False)


SINC_PARAMS = dict(a=0.6, M=6, N=28, h=0.04, sigma=2.7, k=35)
GDER_PARAMS = dict(a=2.0, M=6, N=55, h=0.078, sigma=5.0)


def coverage_preserving_gder(M):
    """GDER_PARAMS at order M with N*h and the period 2^(M+1) h kept."""
    factor = 2 ** (M - GDER_PARAMS["M"])
    return dict(GDER_PARAMS, M=M, N=GDER_PARAMS["N"] * factor,
                h=GDER_PARAMS["h"] / factor)


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
