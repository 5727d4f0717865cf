"""The cosine product and its expanded sum must agree to rounding noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratfourier import (
    ApproxParams,
    GridCoverageWarning,
    RangeError,
    cosine_sum,
    sinc_series,
    viete_product,
)
from ratfourier.trig_identity import _fsum

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


# float.hex of cosine_sum as the per-term math.fsum sum gives it: the
# extraction kernel must leave every bit where it was
@pytest.mark.parametrize("M, t, expected", [
    (1, 0.0, "0x1.0000000000000p+0"),
    (6, -0.0, "0x1.0000000000000p+0"),
    (12, 1e-300, "0x1.0000000000000p+0"),
    (20, 1e-300, "0x1.0000000000000p+0"),
    (10, 37.3, "-0x1.5575d046f93c7p-7"),
    (12, 37.3, "-0x1.5563b12ed661ap-7"),
    (16, 37.3, "-0x1.55627d2a70849p-7"),
    (20, 37.3, "-0x1.55627bf66ce20p-7"),
    (14, 1.7, "0x1.2aaa86106355bp-1"),
    (18, -12.5, "-0x1.5bb7be6b50ce3p-8"),
    (8, math.pi * 2.0**8, "-0x1.0000000000000p+0"),
    (20, math.pi * 2.0**20, "-0x1.0000000000000p+0"),
])
def test_cosine_sum_bits_are_pinned(M, t, expected):
    assert cosine_sum(t, M).hex() == expected


def _outcome(f, v):
    """f(v) as its bits (sign of zero included), "nan", or the exception type."""
    try:
        x = f(v)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(x) else x.hex()


_TERMS = {
    "unit": lambda rng, n: rng.uniform(0.5, 1.0, n),
    "decades": lambda rng, n: 10.0 ** rng.uniform(-300.0, 300.0, n),
    # every binade from the subnormals up to the kernel's 2^960 limit
    "binades": lambda rng, n: 2.0 ** rng.uniform(-1074.0, 959.0, n),
    "subnormal": lambda rng, n: rng.integers(-1000, 1000, n) * 5e-324,
    "huge": lambda rng, n: rng.uniform(0.5, 1.0, n) * 1e308,
    # about one grain of the first extraction next to "unit" terms, so the
    # remainders carry them
    "grain": lambda rng, n: rng.uniform(0.0, 1.0, n) * 2.0**-41,
}
_SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 2.0**960)


@given(st.one_of(st.integers(0, 600), st.integers(512, 4096)), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(sorted(_TERMS)), min_size=1, max_size=2), st.booleans(),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_SPECIALS)),
                min_size=1, max_size=3))
@settings(max_examples=300)
def test_fsum_is_math_fsum(n, seed, kinds, cancel, specials):
    # lengths on both sides of the 512-term crossover; each term draws its
    # scale from one of `kinds` and a random sign; `cancel` appends the
    # negated terms, so the sum is exactly zero.  Each of four draws checks
    # the terms, their negated magnitudes (one sign drives the row sums to
    # their bound, see the next test) and the terms with `specials` written
    # over some of them
    rng = np.random.default_rng(seed)
    for _ in range(4):
        v = np.choose(rng.integers(0, len(kinds), n), [_TERMS[k](rng, n) for k in kinds])
        v *= rng.choice([-1.0, 1.0], n)
        if cancel:
            v = rng.permutation(np.concatenate([v, -v]))
        marked = v.copy()
        for where, x in specials:
            if len(v):
                marked[int(where * len(v))] = x
        for terms in (v, -np.abs(v), marked):
            assert _outcome(_fsum, terms) == _outcome(lambda a: math.fsum(a.tolist()), terms)


@pytest.mark.parametrize("n", [1021, 2045, 4093])
def test_fsum_at_the_bound_of_exact_row_sums(n):
    # n = 2^b - 3 is the largest n with (n + 2).bit_length() = b.  Terms just
    # above -1 put sigma + v below sigma, on the finer grid, and drive the
    # row sum to -n, next to sigma = 2^b: one bit less of headroom rounds it
    rng = np.random.default_rng(n)
    for _ in range(8):
        v = rng.integers(1, 2**30, n) * 2.0**-53 - 1.0
        assert _fsum(v).hex() == math.fsum(v.tolist()).hex()
