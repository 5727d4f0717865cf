"""Parameter validation, target catalogue values, and damped sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratfourier import (
    ApproxParams,
    GridCoverageWarning,
    ReferenceKind,
    TargetKind,
    rect_surrogate,
    reference_value,
    sample_grid,
    target_value,
)

from conftest import GDER_PARAMS, SINC_PARAMS


# --- ApproxParams ---------------------------------------------------------

def test_period_and_term_count():
    p = ApproxParams(**GDER_PARAMS)
    assert p.terms == 32
    assert p.period == 2.0 ** 7 * 0.078


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("M", 0, "M >= 1"),
        ("M", 25, "M <= 24"),
        ("h", 0.0, "h > 0"),
        ("h", -0.1, "h > 0"),
        ("sigma", -1.0, "sigma >= 0"),
        ("k", 0, "k >= 1"),
        ("N", -1, "N >= 0"),
    ],
)
def test_invariant_violations_name_the_invariant(field, value, fragment):
    kwargs = dict(GDER_PARAMS)
    kwargs[field] = value
    with pytest.raises(ValueError, match=fragment):
        ApproxParams(**kwargs)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NON_INTEGRAL = st.one_of(st.floats(), st.sampled_from([np.float64(6.0), "6", None]))

# every way a single field can be invalid, the others kept at GDER_PARAMS
_INVALID = st.one_of(
    st.tuples(st.just("a"), _NON_FINITE),
    st.tuples(st.just("h"), st.one_of(_NON_FINITE, st.floats(max_value=0.0),
                                      st.floats(2.0 ** 1017, 1.7e308))),
    st.tuples(st.just("sigma"), st.one_of(_NON_FINITE,
                                          st.floats(max_value=-5e-324))),
    st.tuples(st.just("M"), st.one_of(_NON_INTEGRAL, st.integers(max_value=0),
                                      st.integers(min_value=25))),
    st.tuples(st.just("N"), st.one_of(_NON_INTEGRAL, st.integers(max_value=-1))),
    st.tuples(st.just("k"), st.one_of(_NON_INTEGRAL, st.integers(max_value=0))),
)


@given(_INVALID)
def test_every_invalid_field_is_named(case):
    field, value = case
    with pytest.raises(ValueError) as info:
        ApproxParams(**dict(GDER_PARAMS, **{field: value}))
    assert str(info.value).startswith(f"{field} ")


@pytest.mark.parametrize("field", ["M", "N", "k"])
def test_numpy_integers_are_accepted(field):
    kwargs = dict(GDER_PARAMS, k=35)
    kwargs[field] = np.int64(kwargs[field])
    assert getattr(ApproxParams(**kwargs), field) == kwargs[field]


def test_sigma_zero_is_allowed():
    kwargs = dict(GDER_PARAMS, sigma=0.0)
    assert ApproxParams(**kwargs).sigma == 0.0


def test_short_grid_warns():
    # sinc preset: N*h = 1.12 < 2a = 1.2, so the grid stops short of the
    # support of the shifted target
    with pytest.warns(GridCoverageWarning):
        ApproxParams(**SINC_PARAMS)


def test_covering_grid_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ApproxParams(**GDER_PARAMS)


# --- rect surrogate -------------------------------------------------------

def test_rect_surrogate_frozen_values():
    assert rect_surrogate(0.4) == pytest.approx(0.9999998354495714, rel=1e-15)
    assert rect_surrogate(0.6) == pytest.approx(2.8662332639007592e-06, rel=1e-12)
    assert rect_surrogate(1.0) == pytest.approx(8.470329472543043e-22, rel=1e-12)


def test_rect_surrogate_tracks_rect_inside_and_far_outside():
    # inside the box and deep outside, the surrogate is within 1e-6 of
    # rect; right past the edge (|t| slightly above 1/2) the gap peaks
    # near 3e-6 before collapsing
    assert abs(rect_surrogate(0.4) - 1.0) <= 1e-6
    assert abs(rect_surrogate(1.0) - 0.0) <= 1e-6
    assert rect_surrogate(0.5) == pytest.approx(0.5, rel=1e-12)


def test_rect_surrogate_no_overflow_at_large_argument():
    # (2t)^(2k) overflows binary64 for |t| > ~130 at k=35; the log-domain
    # form must still return a clean zero
    assert rect_surrogate(1e6) == 0.0
    assert rect_surrogate(-1e6) == 0.0


def test_rect_surrogate_rejects_bad_k():
    with pytest.raises(ValueError, match="k >= 1"):
        rect_surrogate(0.3, k=0)


# --- target catalogue -----------------------------------------------------

def test_gaussian_derivative_values():
    t = 0.7
    expected = math.pi ** 1.5 * 1j * t * math.exp(-((math.pi * t) ** 2))
    assert target_value(TargetKind.GAUSSIAN_DERIVATIVE, t) == pytest.approx(expected)


def test_gaussian_target_values():
    t = 0.3
    expected = math.sqrt(math.pi) * math.exp(-((math.pi * t) ** 2))
    assert target_value(TargetKind.GAUSSIAN, t) == pytest.approx(expected)


def test_reference_catalogue():
    assert reference_value(ReferenceKind.SINC, 0.0) == 1.0
    assert reference_value(ReferenceKind.GAUSS, 0.0) == 1.0
    assert reference_value(ReferenceKind.NU_GAUSS, 2.0) == pytest.approx(
        2.0 * math.exp(-4.0)
    )


# --- damped sampling ------------------------------------------------------

def test_sample_grid_shape_and_endpoints():
    p = ApproxParams(**GDER_PARAMS)
    s = sample_grid(TargetKind.GAUSSIAN_DERIVATIVE, p)
    assert len(s.values) == p.N + 1
    # n = 0 sample: pi^(3/2) * i * (-a) * exp(-(pi a)^2), frozen
    assert s.values[0] == pytest.approx(-7.970689379606785e-17j, rel=1e-12)
    # the damped tail stays negligible for this target
    assert abs(s.values[-1]) == pytest.approx(8.776348348619892e-13, rel=1e-10)


def test_sample_grid_sinc_preset_endpoints():
    with pytest.warns(GridCoverageWarning):
        p = ApproxParams(**SINC_PARAMS)
    s = sample_grid(TargetKind.RECT_SURROGATE, p)
    assert abs(s.values[0]) == pytest.approx(2.8662332639007592e-06, rel=1e-12)
    assert abs(s.values[-1]) == pytest.approx(1.2414853254061757, rel=1e-12)


def test_sample_values_are_read_only():
    p = ApproxParams(**GDER_PARAMS)
    s = sample_grid(TargetKind.GAUSSIAN, p)
    with pytest.raises(ValueError):
        s.values[0] = 1.0


def test_overflowing_damping_rejected():
    p = ApproxParams(a=2.0, M=6, N=1000, h=0.078, sigma=10.0)
    with pytest.raises(OverflowError):
        sample_grid(TargetKind.GAUSSIAN, p)
