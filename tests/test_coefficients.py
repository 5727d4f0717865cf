"""Coefficient formation, the frequency grid, and the disk format."""

import json
import math

import numpy as np
import pytest

from ratfourier import (
    ApproxParams,
    CoefficientSet,
    Direction,
    FileFormatError,
    GridCoverageWarning,
    RangeError,
    TargetKind,
    compute_coefficients,
    gamma_grid,
    gamma_of,
    load_coefficients,
    sample_grid,
    save_coefficients,
)

import bruteforce
from conftest import SINC_PARAMS, build_coefficients


# --- frequency grid -------------------------------------------------------

def test_gamma_frozen_values(sinc_coeffs):
    p = sinc_coeffs.params
    assert gamma_of(1, p) == pytest.approx(1.227184630308513, rel=1e-15)
    assert gamma_of(32, p) == pytest.approx(77.31263170943632, rel=1e-15)
    assert gamma_of(1, p) == pytest.approx(math.pi / 2.56, rel=1e-15)


def test_gamma_grid_matches_scalar_form(sinc_coeffs):
    p = sinc_coeffs.params
    grid = gamma_grid(p)
    assert grid.shape == (32,)
    assert np.all(np.diff(grid) > 0)
    assert grid[6] == gamma_of(7, p)


@pytest.mark.parametrize("m", [0, -3, 33])
def test_gamma_index_out_of_range(m, sinc_coeffs):
    with pytest.raises(RangeError):
        gamma_of(m, sinc_coeffs.params)


# --- coefficient formation ------------------------------------------------

def test_matches_naive_double_loop(sinc_coeffs):
    samples = sample_grid(TargetKind.RECT_SURROGATE, sinc_coeffs.params)
    alpha, beta, gamma = bruteforce.brute_coefficients(samples)
    a_scale = np.max(np.abs(alpha))
    b_scale = np.max(np.abs(beta))
    assert np.max(np.abs(sinc_coeffs.alpha - alpha)) / a_scale <= 1e-13
    assert np.max(np.abs(sinc_coeffs.beta - beta)) / b_scale <= 1e-12
    assert np.allclose(sinc_coeffs.gamma, gamma, rtol=1e-15, atol=0)


def test_odd_target_gives_purely_imaginary_alpha(gder_coeffs):
    # the nu*exp(-nu^2) target samples are purely imaginary, so the cosine
    # projections inherit that exactly
    assert np.max(np.abs(gder_coeffs.alpha.real)) == 0.0
    assert np.max(np.abs(gder_coeffs.alpha.imag)) == pytest.approx(
        4499.38694125377, rel=1e-12
    )


def test_alpha_sum_collapses_to_first_sample(sinc_coeffs):
    # sum_m 2^(1-M) cos(gamma_m n h) telescopes to 0 for 0 < n < 2^M, so
    # sum_m alpha_m recovers the n = 0 sample
    samples = sample_grid(TargetKind.RECT_SURROGATE, sinc_coeffs.params)
    assert abs(np.sum(sinc_coeffs.alpha) - samples.values[0]) <= 1e-13


def test_direction_is_recorded():
    c = build_coefficients(SINC_PARAMS, TargetKind.RECT_SURROGATE,
                           Direction.INVERSE)
    assert c.direction is Direction.INVERSE


def test_sample_budget_enforced():
    p = ApproxParams(a=0.1, M=1, N=10_000, h=1e-4, sigma=0.0)
    samples = sample_grid(TargetKind.GAUSSIAN, p)
    with pytest.raises(RangeError):
        compute_coefficients(samples)


def test_shape_mismatch_rejected(sinc_coeffs):
    with pytest.raises(ValueError):
        CoefficientSet(
            params=sinc_coeffs.params,
            direction=sinc_coeffs.direction,
            target=sinc_coeffs.target,
            alpha=sinc_coeffs.alpha[:5].copy(),
            beta=sinc_coeffs.beta.copy(),
            gamma=sinc_coeffs.gamma.copy(),
        )


def test_arrays_are_read_only(sinc_coeffs):
    with pytest.raises(ValueError):
        sinc_coeffs.alpha[0] = 0.0


# --- disk format ----------------------------------------------------------

def test_save_load_round_trip(tmp_path, gder_coeffs):
    path = tmp_path / "c.json"
    save_coefficients(gder_coeffs, path)
    back = load_coefficients(path)
    assert back.params == gder_coeffs.params
    assert back.direction is gder_coeffs.direction
    assert back.target is gder_coeffs.target
    assert np.array_equal(back.alpha, gder_coeffs.alpha)
    assert np.array_equal(back.beta, gder_coeffs.beta)
    assert np.array_equal(back.gamma, gder_coeffs.gamma)


def test_serialization_is_deterministic(tmp_path, sinc_coeffs):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_coefficients(sinc_coeffs, p1)
    save_coefficients(sinc_coeffs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_order_is_fixed(tmp_path, sinc_coeffs):
    path = tmp_path / "c.json"
    save_coefficients(sinc_coeffs, path)
    keys = list(json.loads(path.read_text()).keys())
    assert keys == ["a", "M", "N", "h", "sigma", "k", "delta",
                    "direction", "target", "alpha", "beta", "gamma"]


def _dump_mutated(tmp_path, coeffs, mutate):
    src = tmp_path / "src.json"
    save_coefficients(coeffs, src)
    doc = json.loads(src.read_text())
    mutate(doc)
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(doc))
    return out


def test_missing_field_rejected(tmp_path, sinc_coeffs):
    path = _dump_mutated(tmp_path, sinc_coeffs, lambda d: d.pop("beta"))
    with pytest.raises(FileFormatError):
        load_coefficients(path)


def test_extra_field_rejected(tmp_path, sinc_coeffs):
    def mutate(d):
        d["comment"] = "hello"

    path = _dump_mutated(tmp_path, sinc_coeffs, mutate)
    with pytest.raises(FileFormatError):
        load_coefficients(path)


def test_bad_parameter_rejected(tmp_path, sinc_coeffs):
    def mutate(d):
        d["M"] = 0

    path = _dump_mutated(tmp_path, sinc_coeffs, mutate)
    with pytest.raises(FileFormatError):
        load_coefficients(path)


def test_inconsistent_gamma_rejected(tmp_path, sinc_coeffs):
    def mutate(d):
        d["gamma"][3] *= 1.5

    path = _dump_mutated(tmp_path, sinc_coeffs, mutate)
    # the sinc set under-covers its target, so loading it warns before rejecting
    with pytest.warns(GridCoverageWarning), pytest.raises(FileFormatError):
        load_coefficients(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_coefficients(path)


def test_file_format_error_is_a_value_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("[]")
    with pytest.raises(ValueError):
        load_coefficients(path)
