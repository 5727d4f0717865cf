"""Coefficient formation, the frequency grid, and the disk format."""

import hashlib
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ratfourier import (
    ApproxParams,
    CoefficientSet,
    Direction,
    FileFormatError,
    GridCoverageWarning,
    RangeError,
    ReferenceKind,
    SampleSet,
    TargetKind,
    compute_coefficients,
    error_scan,
    gamma_grid,
    load_coefficients,
    sample_grid,
    save_coefficients,
)
from ratfourier.targets import MAX_SAMPLES

import bruteforce
from conftest import (
    GDER_PARAMS, SINC_PARAMS, build_coefficients, coverage_preserving,
    coverage_preserving_gder,
)


# --- frequency grid -------------------------------------------------------

def test_gamma_frozen_values(sinc_coeffs):
    grid = gamma_grid(sinc_coeffs.params)
    assert grid[0] == pytest.approx(1.227184630308513, rel=1e-15)
    assert grid[31] == pytest.approx(77.31263170943632, rel=1e-15)
    assert grid[0] == pytest.approx(math.pi / 2.56, rel=1e-15)


def test_gamma_grid_matches_scalar_form(sinc_coeffs):
    p = sinc_coeffs.params
    grid = gamma_grid(p)
    assert grid.shape == (32,)
    assert np.all(np.diff(grid) > 0)
    m = 7
    assert grid[m - 1] == math.pi * (2 * m - 1) / (2 ** p.M * p.h)


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


# M=1 and M=2 have N + 1 > 2^(M+1) samples, so the fold modulo 2^(M+1) wraps
MPMATH_CASES = [
    (dict(a=2.0, M=1, N=9, h=0.5, sigma=1.0), TargetKind.GAUSSIAN_DERIVATIVE),
    (dict(a=2.0, M=2, N=40, h=0.1, sigma=1.0), TargetKind.GAUSSIAN),
    (SINC_PARAMS, TargetKind.RECT_SURROGATE),
    (GDER_PARAMS, TargetKind.GAUSSIAN_DERIVATIVE),
    (GDER_PARAMS, TargetKind.GAUSSIAN),
]


@pytest.mark.parametrize("params_kwargs, target", MPMATH_CASES,
                         ids=["M1-gder", "M2-gauss", "sinc", "gder", "gauss"])
def test_matches_mpmath_reference(params_kwargs, target):
    # two binary64 ulps of the largest coefficient: what rounding the exact
    # sums once, plus the longdouble transform's own error, may leave
    coeffs = build_coefficients(params_kwargs, target)
    samples = sample_grid(target, coeffs.params)
    exact_alpha, exact_beta = bruteforce.mpmath_coefficients(samples)
    for name, got, exact in (("alpha", coeffs.alpha, exact_alpha),
                             ("beta", coeffs.beta, exact_beta)):
        rel = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
        assert rel <= 4.4e-16, f"{name}: {rel:.2e} of the largest coefficient"


@pytest.mark.parametrize("M", [10, 12])
def test_higher_orders_keep_criterion_2_accuracy(M):
    # measured: 6.46e-12 at M=10 (N=880) and 6.21e-12 at M=12 (N=3520)
    coeffs = build_coefficients(coverage_preserving_gder(M),
                                TargetKind.GAUSSIAN_DERIVATIVE)
    curve = error_scan(coeffs, ReferenceKind.NU_GAUSS, -2 * np.pi, 2 * np.pi, 1000)
    assert curve.max_abs_diff < 7.3e-12


def test_alpha_sum_collapses_at_order_12():
    # the telescoping of test_alpha_sum_collapses_to_first_sample over 2048
    # terms; measured 1.03e-12, 2.3e-16 of max|alpha| = 4499
    coeffs = build_coefficients(coverage_preserving_gder(12),
                                TargetKind.GAUSSIAN_DERIVATIVE)
    samples = sample_grid(TargetKind.GAUSSIAN_DERIVATIVE, coeffs.params)
    assert (abs(np.sum(coeffs.alpha) - samples.values[0])
            <= 1e-13 * np.max(np.abs(coeffs.alpha)))


# sha256 of alpha.tobytes() + beta.tobytes(), taken with numpy 2.4 on x86-64
# Linux, whose longdouble is 80-bit: one moved bit of a coefficient moves it.
# Direction only tags a set, so a Gaussian's forward and inverse sets share one
_COEFFICIENT_DIGESTS = {
    ("gder", 6): "e5903c285b2c516c1be175add1d874a73962a7e3a801d197a204af8a56d4403a",
    ("gder", 8): "bc0b36fe3d7a1969d9c21e25825ccd4ad718a92d8794722dc889d4c4f2c1c700",
    ("gder", 10): "64faa5b08e5e5f59047219d1352ec5d99329bc5a95f75cd1a33796bf2831d7b9",
    ("sinc", 6): "b223ff5890a2fb49b9d1dbae6fce58d29284a34794d962db3655bcd22c3dbbdb",
    ("sinc", 8): "4f1d318ac55c4859176e0a3c48bbe41417be1062b49eac467aed26befa0014ff",
    ("sinc", 10): "bb5bd4b09f690416c17a895a9d5e3773deae444258ab17bdd1c2765e87065ec3",
    ("gauss", 6): "326bbfcc86e716b7ab6df878b4d96b87045c29affdc07ed009fff9f8bda1396d",
    ("gauss", 8): "90df53d49984c47fb6f0a77033f6b1b279815fc9197ca881c545e8a9dcfe9fa6",
    ("gauss", 10): "635d5ed835232193265cd27d29b8fc70c18749f5107766fae017f74bbde2206a",
    ("two-part", 6): "ab24b0d3b5679edf27ffe5cabbfe0527dbaf6648aa42757dfecba33110d96242",
    ("zero", 6): "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
}
_DIGEST_SETS = {
    "gder": (GDER_PARAMS, TargetKind.GAUSSIAN_DERIVATIVE),
    "sinc": (SINC_PARAMS, TargetKind.RECT_SURROGATE),
    "gauss": (GDER_PARAMS, TargetKind.GAUSSIAN),
}


def _digest(coeffs):
    return hashlib.sha256(coeffs.alpha.tobytes() + coeffs.beta.tobytes()).hexdigest()


@pytest.mark.parametrize("name, M, direction", [
    *((name, M, Direction.FORWARD) for name in _DIGEST_SETS for M in (6, 8, 10)),
    *(("gauss", M, Direction.INVERSE) for M in (6, 8, 10)),
])
def test_catalogue_coefficients_are_pinned(name, M, direction):
    base, target = _DIGEST_SETS[name]
    coeffs = build_coefficients(coverage_preserving(base, M), target, direction)
    assert _digest(coeffs) == _COEFFICIENT_DIGESTS[name, M]


def test_two_part_and_zero_coefficients_are_pinned():
    params = ApproxParams(**GDER_PARAMS)
    two_part = (sample_grid(TargetKind.GAUSSIAN, params).values
                + (0.3 + 0.7j) * sample_grid(TargetKind.GAUSSIAN_DERIVATIVE, params).values)
    for name, values in (("two-part", two_part), ("zero", np.zeros(params.N + 1, complex))):
        samples = SampleSet(params=params, target=TargetKind.GAUSSIAN, values=values)
        assert _digest(compute_coefficients(samples)) == _COEFFICIENT_DIGESTS[name, 6]


@st.composite
def _two_part_samples(draw):
    M = draw(st.integers(1, 8))
    N = draw(st.integers(0, 100))
    # a = 0: the grid covers the target whatever N is, so nothing warns
    params = ApproxParams(a=0.0, M=M, N=N, h=0.1, sigma=1.0)
    parts = draw(hnp.arrays(np.float64, 2 * (N + 1), elements=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))))
    return SampleSet(params=params, target=TargetKind.GAUSSIAN, values=parts.view(complex))


_ONE_SAMPLE = SampleSet(params=ApproxParams(a=0.0, M=3, N=0, h=0.1, sigma=1.0),
                        target=TargetKind.GAUSSIAN, values=np.array([1.0 - 2.0j]))


@given(_two_part_samples())
@example(_ONE_SAMPLE)
def test_each_sample_part_gives_its_own_coefficient_part(samples):
    # the real samples alone give the real parts of alpha and beta, bit for
    # bit, and the imaginary samples the imaginary parts; a one-sample set
    # has sine bins of exactly zero, which must not come out as -0
    both = compute_coefficients(samples)
    alone = [compute_coefficients(replace(samples, values=values)) for values in
             (samples.values.real.astype(complex), 1j * samples.values.imag)]
    for name in ("alpha", "beta"):
        got = getattr(both, name)
        assert got.real.tobytes() == getattr(alone[0], name).real.tobytes()
        assert got.imag.tobytes() == getattr(alone[1], name).imag.tobytes()
        assert not np.signbit(got.view(float)[got.view(float) == 0]).any()


def test_direction_is_recorded():
    c = build_coefficients(SINC_PARAMS, TargetKind.RECT_SURROGATE,
                           Direction.INVERSE)
    assert c.direction is Direction.INVERSE


def test_sample_budget_enforced():
    # the cap is a parameter limit, refused before any sample is allocated
    assert ApproxParams(a=0.1, M=1, N=MAX_SAMPLES - 1, h=1e-4, sigma=0.0).N + 1 == MAX_SAMPLES
    with pytest.raises(RangeError):
        ApproxParams(a=0.1, M=1, N=MAX_SAMPLES, h=1e-4, sigma=0.0)


def test_shape_mismatch_rejected(sinc_coeffs):
    with pytest.raises(ValueError):
        CoefficientSet(
            params=sinc_coeffs.params,
            direction=sinc_coeffs.direction,
            target=sinc_coeffs.target,
            alpha=sinc_coeffs.alpha[:5].copy(),
            beta=sinc_coeffs.beta.copy(),
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
    # the file holds "a": 2 and "sigma": 5; they must come back as floats
    assert all(type(getattr(back.params, n)) is float for n in ("a", "h", "sigma"))
    assert back.direction is gder_coeffs.direction
    assert back.target is gder_coeffs.target
    assert np.array_equal(back.alpha, gder_coeffs.alpha)
    assert np.array_equal(back.beta, gder_coeffs.beta)
    assert np.array_equal(back.gamma, gder_coeffs.gamma)


@pytest.mark.parametrize("fixture", ["sinc_coeffs", "gder_coeffs", "gauss_inverse_coeffs"])
def test_save_load_save_is_byte_identical(tmp_path, request, fixture):
    # the file of a computed set must reload to the same bytes
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_coefficients(request.getfixturevalue(fixture), first)
    with warnings.catch_warnings():
        # loading the sinc set repeats its intentional short-grid warning
        warnings.simplefilter("ignore", GridCoverageWarning)
        save_coefficients(load_coefficients(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_negative_zero_survives_the_file(tmp_path, gder_coeffs):
    # "-0" is how a -0.0 is written; json alone would read it as the integer 0
    alpha, beta = gder_coeffs.alpha.copy(), gder_coeffs.beta.copy()
    alpha[0] = complex(-0.0, -0.0)
    beta[1] = complex(-0.0, 1.5)
    beta[2] = complex(2.5, -0.0)
    signed = CoefficientSet(
        params=gder_coeffs.params, direction=gder_coeffs.direction,
        target=gder_coeffs.target, alpha=alpha, beta=beta,
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_coefficients(signed, first)
    back = load_coefficients(first)
    assert np.array_equal(np.signbit(back.alpha.view(float)), np.signbit(alpha.view(float)))
    assert np.array_equal(np.signbit(back.beta.view(float)), np.signbit(beta.view(float)))
    save_coefficients(back, second)
    assert first.read_bytes() == second.read_bytes()


# any finite double, with signed zeros and subnormals drawn often
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]),
)


@st.composite
def _coefficient_sets(draw):
    M = draw(st.integers(1, 5))
    params = ApproxParams(**dict(GDER_PARAMS, M=M))
    columns = [np.array(draw(st.lists(_FINITE, min_size=2 * params.terms,
                                      max_size=2 * params.terms))).view(complex)
               for _ in range(2)]
    return CoefficientSet(
        params=params, direction=draw(st.sampled_from(Direction)),
        target=draw(st.sampled_from(TargetKind)),
        alpha=columns[0], beta=columns[1],
    )


_M2 = ApproxParams(**dict(GDER_PARAMS, M=2))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_coefficient_sets())
@example(CoefficientSet(
    params=_M2, direction=Direction.FORWARD, target=TargetKind.GAUSSIAN,
    alpha=np.array([-0.0 + 5e-324j, 0.0 - 0.0j]),
    beta=np.array([-5e-324 - 1.7976931348623157e308j, 2.2250738585072009e-308 + 1.0j]),
))
def test_save_load_save_is_byte_identical_for_any_finite_set(coeffs):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_coefficients(coeffs, first)
        back = load_coefficients(first)
        save_coefficients(back, second)
        assert first.read_bytes() == second.read_bytes()
    for name in ("alpha", "beta"):
        saved, loaded = getattr(coeffs, name).view(float), getattr(back, name).view(float)
        assert [v.hex() for v in loaded.tolist()] == [v.hex() for v in saved.tolist()]


def test_serialization_is_deterministic(tmp_path, sinc_coeffs):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_coefficients(sinc_coeffs, p1)
    save_coefficients(sinc_coeffs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_order_is_fixed(tmp_path, sinc_coeffs):
    path = tmp_path / "c.json"
    save_coefficients(sinc_coeffs, path)
    keys = list(json.loads(path.read_text()).keys())
    assert keys == ["a", "M", "N", "h", "sigma", "k",
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


def test_pre_delta_file_rejected(tmp_path, gder_coeffs):
    # files written before ApproxParams lost its unused delta are refused
    path = _dump_mutated(tmp_path, gder_coeffs, lambda d: d.update(delta=0.1))
    with pytest.raises(FileFormatError, match="unknown fields: delta"):
        load_coefficients(path)


def test_sample_cap_in_file_rejected(tmp_path, gder_coeffs):
    path = _dump_mutated(tmp_path, gder_coeffs, lambda d: d.update(N=MAX_SAMPLES))
    with pytest.raises(FileFormatError, match=rf"N \+ 1 <= {MAX_SAMPLES}"):
        load_coefficients(path)


def test_bad_parameter_rejected(tmp_path, sinc_coeffs):
    def mutate(d):
        d["M"] = 0

    path = _dump_mutated(tmp_path, sinc_coeffs, mutate)
    with pytest.raises(FileFormatError):
        load_coefficients(path)


@pytest.mark.parametrize("field, value", [
    ("M", 6.5), ("N", 55.9), ("k", 35.5), ("a", "2.0"),
    *(pytest.param(field, True, id=f"{field}-bool") for field in ("a", "M", "k")),
    # json reads a 401-digit integer exactly; no double holds it
    *(pytest.param(field, 10**400, id=f"{field}-1e400") for field in ("a", "h", "sigma", "N")),
])
def test_mistyped_parameter_rejected(tmp_path, gder_coeffs, field, value):
    # the loader coerces nothing that ApproxParams would refuse
    path = _dump_mutated(tmp_path, gder_coeffs, lambda d: d.update({field: value}))
    with pytest.raises(FileFormatError, match=f"{field} must be"):
        load_coefficients(path)


def test_inconsistent_gamma_rejected(tmp_path, sinc_coeffs):
    def mutate(d):
        d["gamma"][3] *= 1.5

    path = _dump_mutated(tmp_path, sinc_coeffs, mutate)
    # the sinc set under-covers its target, so loading it warns before rejecting
    with pytest.warns(GridCoverageWarning), pytest.raises(FileFormatError):
        load_coefficients(path)


@pytest.mark.parametrize("column, entry", [
    pytest.param("alpha", [True, False], id="alpha-bool"),
    pytest.param("beta", [10**400, 0], id="beta-1e400"),
    pytest.param("gamma", 10**400, id="gamma-1e400"),
])
def test_mistyped_coefficient_rejected(tmp_path, gder_coeffs, column, entry):
    # json's true is an int to Python, and no double holds 10**400
    def mutate(d):
        d[column][0] = entry

    path = _dump_mutated(tmp_path, gder_coeffs, mutate)
    with pytest.raises(FileFormatError, match=column):
        load_coefficients(path)


@pytest.mark.parametrize("mutate, match", [
    pytest.param(None, "cannot read coefficient file", id="no-file"),
    pytest.param(lambda d: d.update(direction="sideways"), "sideways", id="direction"),
    pytest.param(lambda d: d.update(target="boxcar"), "boxcar", id="target"),
    pytest.param(lambda d: d.update(alpha="[]"), "alpha must be a list", id="alpha-string"),
])
def test_unreadable_or_unknown_contents_rejected(tmp_path, gder_coeffs, mutate, match):
    # mutate=None reads a path that does not exist
    path = (tmp_path / "absent.json" if mutate is None
            else _dump_mutated(tmp_path, gder_coeffs, mutate))
    with pytest.raises(FileFormatError, match=match):
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
