"""The cosine product and its expanded sum must agree to rounding noise."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratfourier import (
    ApproxParams,
    GridCoverageWarning,
    RangeError,
    cosine_sum,
    sinc_series,
    viete_product,
)

# the sinc flagship set deliberately stops its grid short of the target support
with pytest.warns(GridCoverageWarning):
    SINC = ApproxParams(a=0.6, M=6, N=28, h=0.04, sigma=2.7, k=35)


def test_identity_holds_for_all_orders():
    rng = np.random.default_rng(42)
    for M in range(1, 13):
        t = rng.uniform(-100.0, 100.0, size=50)
        dev = max(abs(viete_product(ti, M) - cosine_sum(ti, M)) for ti in t)
        assert dev <= 1e-11


@given(st.integers(1, 12), st.floats(-100.0, 100.0))
def test_identity_holds_at_any_point(M, t):
    # criterion 3 as a property over the whole (M, t) range it claims
    assert abs(viete_product(t, M) - cosine_sum(t, M)) <= 1e-11


def test_identity_at_spot_point():
    # frozen spot check: both sides agree to the last bit at t=1.7, M=8
    assert abs(viete_product(1.7, 8) - cosine_sum(1.7, 8)) <= 1e-15


def test_order_one_is_a_single_cosine():
    for t in (0.0, 0.3, -2.2, 17.5):
        assert cosine_sum(t, 1) == math.cos(t / 2.0)
        assert viete_product(t, 1) == math.cos(t / 2.0)


def test_value_one_at_origin():
    for M in range(1, 13):
        assert viete_product(0.0, M) == 1.0
        assert cosine_sum(0.0, M) == 1.0


def test_term_count_scaling():
    # the sum has 2^(M-1) equal-weight terms; at t=0 each contributes 1
    # exactly, so any miscount would shift the value away from 1
    assert cosine_sum(0.0, 12) == 1.0


def test_periodicity_of_the_sum():
    # frequencies (2m-1)/2^M make the sum periodic with period 2^(M+1) pi
    M = 6
    period = 2.0 ** (M + 1) * math.pi
    dev = abs(cosine_sum(1.234, M) - cosine_sum(1.234 + period, M))
    assert dev <= 1e-13
    # odd multiples make half a period a sign flip: the sum is anti-periodic
    # with half-period 2^M pi, so the first replica is a negated copy
    flip = abs(cosine_sum(1.234 + period / 2.0, M) + cosine_sum(1.234, M))
    assert flip <= 1e-13


def test_sinc_series_zero_at_first_grid_node():
    # t = h maps to argument pi, where the M-factor product contains
    # cos(pi/2) = 0; frozen value 4.19e-17
    assert abs(sinc_series(SINC.h, SINC)) <= 1e-15


def test_sinc_series_truncation_scale():
    # at M = 6 the truncated product sits ~2e-5 from the true sinc
    t = 0.01
    x = math.pi * t / SINC.h
    true = math.sin(x) / x
    diff = abs(sinc_series(t, SINC) - true)
    assert 1e-6 < diff < 5e-5


@pytest.mark.parametrize("bad", [0, -1, 25, 100])
def test_order_out_of_range_rejected(bad):
    with pytest.raises(RangeError):
        viete_product(1.0, bad)
    with pytest.raises(RangeError):
        cosine_sum(1.0, bad)


def test_range_error_is_a_value_error():
    with pytest.raises(ValueError):
        cosine_sum(1.0, 0)
