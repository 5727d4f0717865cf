"""Pole-residue evaluators, scan curves, and the delimited-text writer."""

import math

import numpy as np
import pytest

from ratfourier import (
    Direction,
    DirectionError,
    EvaluationCurve,
    PoleError,
    ReferenceKind,
    TargetKind,
    error_scan,
    eval_forward,
    eval_inverse,
)
from ratfourier.rational_eval import _BLOCK_BYTES

from conftest import GDER_PARAMS, build_coefficients

# gauss-derivative coverage at M=10: N and 1/h scaled by 2^(10-6)
GDER_M10 = dict(GDER_PARAMS, M=10, N=GDER_PARAMS["N"] * 16, h=GDER_PARAMS["h"] / 16)


def test_forward_frozen_values(sinc_coeffs):
    v0 = eval_forward(sinc_coeffs, 0.0)
    assert v0.real == pytest.approx(1.0017897667933333, rel=1e-12)
    assert v0.imag == 0.0
    v1 = eval_forward(sinc_coeffs, 1.0)
    assert v1.real == pytest.approx(-0.0023534822358978772, rel=1e-9)
    assert v1.imag == pytest.approx(-0.001364856465712924, rel=1e-9)


def test_forward_array_matches_scalars(sinc_coeffs):
    nu = np.array([-1.3, 0.0, 0.4, 2.9])
    batch = eval_forward(sinc_coeffs, nu)
    for i, v in enumerate(nu):
        assert batch[i] == eval_forward(sinc_coeffs, float(v))


def test_direction_guards(sinc_coeffs, gauss_inverse_coeffs):
    with pytest.raises(DirectionError):
        eval_forward(gauss_inverse_coeffs, 0.3)
    with pytest.raises(DirectionError):
        eval_inverse(sinc_coeffs, 0.3)


def test_pole_is_reported(sinc_coeffs, gauss_inverse_coeffs):
    # s = sigma + 2 pi i nu lands exactly on i*gamma_1 at this complex nu
    p = sinc_coeffs.params
    nu = (sinc_coeffs.gamma[0] + 1j * p.sigma) / (2.0 * math.pi)
    with pytest.raises(PoleError):
        eval_forward(sinc_coeffs, nu)
    # inverse: s = sigma - 2 pi i t lands on -i*gamma_1
    q = gauss_inverse_coeffs.params
    t = (gauss_inverse_coeffs.gamma[0] - 1j * q.sigma) / (2.0 * math.pi)
    with pytest.raises(PoleError):
        eval_inverse(gauss_inverse_coeffs, t)


@pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.INVERSE])
def test_pole_on_the_real_axis_without_damping_is_reported(direction):
    # sigma = 0 zeroes the pole bound (Re s)^2 at every real x, so the full
    # test must run: s = +/-2 pi i x meets +/-i gamma_1 at x = gamma_1 / (2 pi)
    coeffs = build_coefficients(dict(GDER_PARAMS, sigma=0.0), TargetKind.GAUSSIAN, direction)
    evaluate = eval_forward if direction is Direction.FORWARD else eval_inverse
    x = coeffs.gamma[0] / (2.0 * math.pi)
    with pytest.raises(PoleError):
        evaluate(coeffs, x)
    with pytest.raises(PoleError):
        evaluate(coeffs, np.array([0.0, 0.5, x]))


# (4, 1) and (2, 32) broadcast against the 32 terms at M=6 and were once
# returned unsummed; (3, 2) broadcasts against nothing
@pytest.mark.parametrize("shape", [(3, 2), (4, 1), (2, 32)])
def test_arrays_of_two_or_more_dimensions_are_rejected(sinc_coeffs, gauss_inverse_coeffs,
                                                        shape):
    for evaluate, coeffs in ((eval_forward, sinc_coeffs), (eval_inverse, gauss_inverse_coeffs)):
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
            evaluate(coeffs, np.zeros(shape))


@pytest.fixture(scope="module", params=[
    (GDER_PARAMS, Direction.FORWARD), (GDER_PARAMS, Direction.INVERSE),
    (GDER_M10, Direction.FORWARD), (GDER_M10, Direction.INVERSE),
], ids=["M6-forward", "M6-inverse", "M10-forward", "M10-inverse"])
def blocked_case(request):
    params, direction = request.param
    coeffs = build_coefficients(params, TargetKind.GAUSSIAN, direction)
    evaluate = eval_forward if direction is Direction.FORWARD else eval_inverse
    step = max(1, _BLOCK_BYTES // (16 * len(coeffs.gamma)))
    return coeffs, evaluate, step


def _hex(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
def test_blocked_array_equals_scalars_bitwise(blocked_case, complex_x):
    # every row of the pole sum is reduced on its own, so the block a point
    # falls in, and where the blocks start, must not change a bit
    coeffs, evaluate, step = blocked_case
    assert step > 1
    for n in (0, 1, step - 1, step, step + 1, 3 * step + 7):
        x = np.linspace(-2.0 * math.pi, 2.0 * math.pi, n)
        if complex_x:
            x = x + 1j * np.linspace(-0.3, 0.4, n)
        batch = evaluate(coeffs, x)
        assert batch.shape == (n,)
        assert _hex(batch) == _hex(evaluate(coeffs, v) for v in x.tolist())


def test_pole_in_last_block_is_reported(blocked_case):
    coeffs, evaluate, step = blocked_case
    x = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 3 * step + 7).astype(complex)
    # forward s = sigma + 2 pi i x meets i*gamma_1, inverse s = sigma - 2 pi i x meets -i*gamma_1
    sign = 1.0 if evaluate is eval_forward else -1.0
    x[-1] = (coeffs.gamma[0] + sign * 1j * coeffs.params.sigma) / (2.0 * math.pi)
    with pytest.raises(PoleError):
        evaluate(coeffs, x)
    evaluate(coeffs, x[:-1])


def test_inverse_frozen_value(gauss_inverse_coeffs):
    v = eval_inverse(gauss_inverse_coeffs, 0.0)
    assert v.real == pytest.approx(0.9999999999854481, rel=1e-12)


def test_inverse_is_even_for_even_target(gauss_inverse_coeffs):
    for t in (0.25, 0.7, 1.9):
        plus = eval_inverse(gauss_inverse_coeffs, t)
        minus = eval_inverse(gauss_inverse_coeffs, -t)
        assert abs(plus.real - minus.real) <= 1e-15


def test_scan_grid_and_reduction(sinc_coeffs):
    curve = error_scan(sinc_coeffs, ReferenceKind.SINC, -1.0, 1.0, 11)
    assert curve.x[0] == -1.0 and curve.x[-1] == 1.0 and len(curve.x) == 11
    assert curve.max_abs_diff == np.max(curve.abs_diff)
    assert np.array_equal(curve.abs_diff,
                          np.abs(curve.reference - curve.approx.real))


def test_scan_dispatches_on_direction(gauss_inverse_coeffs):
    curve = error_scan(gauss_inverse_coeffs, ReferenceKind.GAUSS,
                       -2.0 * math.pi, 2.0 * math.pi, 101)
    assert curve.max_abs_diff <= 1e-9


def test_scan_argument_validation(sinc_coeffs):
    with pytest.raises(ValueError, match="lo < hi"):
        error_scan(sinc_coeffs, ReferenceKind.SINC, 1.0, 1.0, 10)
    # finite limits whose width overflows
    with pytest.raises(ValueError, match="lo < hi"):
        error_scan(sinc_coeffs, ReferenceKind.SINC, -1e308, 1e308, 10)
    with pytest.raises(ValueError, match="count >= 2"):
        error_scan(sinc_coeffs, ReferenceKind.SINC, 0.0, 1.0, 1)


def test_curve_rejects_inconsistent_columns():
    x = np.linspace(0.0, 1.0, 5)
    approx = np.full(5, 0.5 + 0.0j)
    ref = np.ones(5)
    with pytest.raises(ValueError):
        EvaluationCurve(x=x, approx=approx[:4], reference=ref)


def test_curve_writer_round_trips(tmp_path, sinc_coeffs):
    curve = error_scan(sinc_coeffs, ReferenceKind.SINC, -1.0, 1.0, 7)
    path = tmp_path / "curve.csv"
    curve.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,approx_re,approx_im,reference,abs_diff"
    assert len(lines) == 8
    for i, line in enumerate(lines[1:]):
        x, a_re, a_im, ref, diff = map(float, line.split(","))
        assert x == curve.x[i]
        assert a_re == curve.approx[i].real
        assert a_im == curve.approx[i].imag
        assert ref == curve.reference[i]
        assert diff == curve.abs_diff[i]
