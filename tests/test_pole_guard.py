"""The bound-first pole guards raise exactly where a full test would.

The evaluator and the Voigt residue test their denominators in full only
where an analytic lower bound does not clear DENOM_FLOOR.  These properties
draw points in general position and within a few ulps of every pole, and
compare the PoleError decision with bruteforce's test of every denominator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratfourier import (
    Direction, PoleError, TargetKind, VoigtPoint, eval_forward, eval_inverse,
    voigt_residue, voigt_residue_complex,
)
from ratfourier.rational_eval import _BLOCK_BYTES

import bruteforce
from conftest import build_coefficients, coverage_preserving_gder

_SETTINGS = settings(max_examples=80)


def _raises(f, *args):
    try:
        f(*args)
    except PoleError:
        return True
    return False


def _nudge(v, ulps):
    # v moved by `ulps` units in its last place
    return float(v + ulps * np.spacing(v))


_ULPS = st.integers(-3, 3)


@pytest.fixture(scope="module", params=[
    (M, direction, sigma)
    for M in (6, 10) for direction in Direction for sigma in (None, 0.0)
], ids=lambda p: f"M{p[0]}-{p[1].value}-{'sigma0' if p[2] == 0.0 else 'preset'}")
def evaluator_case(request):
    M, direction, sigma = request.param
    params = coverage_preserving_gder(M)
    if sigma is not None:
        params["sigma"] = sigma
    coeffs = build_coefficients(params, TargetKind.GAUSSIAN, direction)
    evaluate = eval_forward if direction is Direction.FORWARD else eval_inverse
    step = max(1, _BLOCK_BYTES // (16 * len(coeffs.gamma)))
    return coeffs, evaluate, step


@st.composite
def _evaluator_points(draw, coeffs, step):
    """A 1-D array over up to three blocks, some of its points next to poles.

    Forward s = sigma + 2 pi i x is +/-i gamma_m at x = (+/-gamma_m +
    i sigma) / (2 pi); inverse s = sigma - 2 pi i x at the conjugate.
    """
    complex_x = draw(st.booleans())
    n = draw(st.integers(1, 3 * step + 1))
    x = np.linspace(-2.0 * math.pi, 2.0 * math.pi, n)
    if complex_x:
        x = x + 1j * np.linspace(-0.3, 0.4, n)
    sign_im = 1.0 if coeffs.direction is Direction.FORWARD else -1.0
    sigma = coeffs.params.sigma
    # indices drawn for the near-pole points; the last point is often one
    spots = draw(st.lists(st.integers(0, n - 1), max_size=3))
    if draw(st.booleans()):
        spots.append(n - 1)
    for i in spots:
        kind = draw(st.sampled_from(["pole", "line", "generic"]))
        g = coeffs.gamma[draw(st.integers(0, len(coeffs.gamma) - 1))]
        re = draw(st.sampled_from([-1.0, 1.0])) * g / (2.0 * math.pi)
        if kind == "line":  # Re s = 0 away from the poles: a zero bound, no pole
            re = draw(st.floats(-20.0, 20.0))
        elif kind == "generic":
            re = draw(st.floats(-1e3, 1e3))
        im = sign_im * sigma / (2.0 * math.pi) if kind != "generic" else draw(st.floats(-5.0, 5.0))
        re, im = _nudge(re, draw(_ULPS)), _nudge(im, draw(_ULPS))
        x[i] = complex(re, im) if complex_x else re
    return x


@_SETTINGS
@given(data=st.data())
def test_evaluator_raises_exactly_where_a_denominator_is_below_the_floor(evaluator_case, data):
    coeffs, evaluate, step = evaluator_case
    x = data.draw(_evaluator_points(coeffs, step))
    assert _raises(evaluate, coeffs, x) == bruteforce.evaluator_pole_hit(coeffs, x)
    # a scalar takes the same guard as its own one-point array
    assert _raises(evaluate, coeffs, x[-1]) == bruteforce.evaluator_pole_hit(coeffs, x[-1:])


@pytest.fixture(scope="module", params=[6, 10], ids=["M6", "M10"])
def residue_case(request):
    return build_coefficients(coverage_preserving_gder(request.param), TargetKind.GAUSSIAN)


@st.composite
def _residue_points(draw, coeffs):
    """(x, y) in general position, on the line 2 pi y = sigma where both
    bounds vanish, or within a few ulps of a pole x = +/-gamma_m / (2 pi)
    on that line (all three denominator families have their poles there)."""
    kind = draw(st.sampled_from(["pole", "line", "generic"]))
    y = coeffs.params.sigma / (2.0 * math.pi)
    if kind == "generic":
        y = draw(st.floats(1e-8, 5.0))
        x = draw(st.floats(-50.0, 50.0))
    elif kind == "line":
        x = draw(st.floats(-50.0, 50.0))
    else:
        g = coeffs.gamma[draw(st.integers(0, len(coeffs.gamma) - 1))]
        x = draw(st.sampled_from([-1.0, 1.0])) * g / (2.0 * math.pi)
    return _nudge(x, draw(_ULPS)), _nudge(y, draw(_ULPS))


@_SETTINGS
@given(data=st.data())
def test_residue_raises_exactly_where_a_denominator_is_below_the_floor(residue_case, data):
    coeffs = residue_case
    x, y = data.draw(_residue_points(coeffs))
    hit = bruteforce.residue_pole_hit(coeffs, x, y)
    p = VoigtPoint(x, y)
    assert _raises(voigt_residue, coeffs, p) == hit
    assert _raises(voigt_residue_complex, coeffs, p) == hit
