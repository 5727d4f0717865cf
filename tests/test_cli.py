"""End-to-end command-line behaviour, run in-process through main()."""

import argparse
import itertools
import math
from pathlib import Path

import pytest

from ratfourier import Direction, ReferenceKind, TargetKind, load_coefficients
from ratfourier.cli import _REFERENCES, build_parser, main

pytestmark = pytest.mark.filterwarnings(
    "ignore::ratfourier.targets.GridCoverageWarning"
)


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def _value_of(line):
    key, _, raw = line.partition("=")
    return float(raw)


# --- coeffs -----------------------------------------------------------------

def test_coeffs_builds_a_loadable_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["coeffs", "--preset", "sinc", "--out", str(path)]) == 0
    lines = _lines(capsys)
    assert lines[-1] == "terms=32"
    echo = lines[-2]
    for fragment in ("M=6", "N=28", "direction=forward", "target=rect-surrogate"):
        assert fragment in echo
    assert load_coefficients(path).params.M == 6


def test_coeffs_requires_out(capsys):
    assert main(["coeffs", "--preset", "sinc"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [[], ["--preset", "sinc", "--a", "1"]])
def test_coeffs_checks_out_before_the_setup(flags, capsys):
    # no sinc-preset warning and no conflict is reported before the missing --out
    assert main(["coeffs", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coeffs requires --out")


@pytest.mark.parametrize("flags, echo", [
    (["--preset", "sinc"],
     "a=0.59999999999999998 M=6 N=28 h=0.040000000000000001 sigma=2.7000000000000002 "
     "k=35 direction=forward target=rect-surrogate"),
    (["--a", "2", "--M", "8", "--N", "55", "--h", "0.078", "--sigma", "2",
      "--target", "gauss", "--direction", "inverse"],
     "a=2 M=8 N=55 h=0.078 sigma=2 k=35 direction=inverse target=gauss"),
])
def test_coeffs_echo_line_is_pinned(flags, echo, tmp_path, capsys):
    assert main(["coeffs", *flags, "--out", str(tmp_path / "c.json")]) == 0
    assert _lines(capsys)[-2] == echo


def test_oversized_sample_count_is_refused(tmp_path, capsys):
    # refused by ApproxParams, before sample_grid would allocate 48 B per sample
    path = tmp_path / "over.json"
    assert main(["coeffs", "--a", "0.1", "--M", "6", "--N", "1000000000000", "--h", "1e-15",
                 "--sigma", "0", "--target", "gauss", "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: N + 1 <= 4194304 violated")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["coeffs", "--preset", "sinc", "--out", "no-such-dir/x.json"],
    ["scan", "--preset", "sinc", "--out", "."],
    ["voigt", "--y", "1", "--n", "2", "--out", "no-such-dir/v.csv"],
])
def test_unwritable_out_is_refused(argv, tmp_path, monkeypatch, capsys):
    # a missing directory or a directory itself is an invalid --out, exit 2
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_preset_and_explicit_flags_conflict(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc = main(["coeffs", "--preset", "sinc", "--a", "1.0", "--out", str(path)])
    assert rc == 2
    # a coefficient file fixes every parameter, so scan --coeffs takes none
    assert main(["coeffs", "--preset", "sinc", "--out", str(path)]) == 0
    for flags in (["--preset", "sinc"],
                  ["--M", "9", "--target", "gauss", "--direction", "inverse", "--a", "5"]):
        assert main(["scan", "--coeffs", str(path), *flags]) == 2


# --- scan -------------------------------------------------------------------

def test_reference_table_is_complete():
    # a row per (target, direction) but the gauss-derivative inverse, and
    # every reference in some row
    missing = set(itertools.product(TargetKind, Direction)) - set(_REFERENCES)
    assert missing == {(TargetKind.GAUSSIAN_DERIVATIVE, Direction.INVERSE)}
    assert set(_REFERENCES.values()) == set(ReferenceKind)


def test_scan_preset_and_file_routes_agree(tmp_path, capsys):
    path = tmp_path / "c.json"
    main(["coeffs", "--preset", "sinc", "--out", str(path)])
    capsys.readouterr()

    assert main(["scan", "--preset", "sinc"]) == 0
    from_preset = _lines(capsys)[-1]
    assert main(["scan", "--coeffs", str(path)]) == 0
    from_file = _lines(capsys)[-1]

    assert from_preset == from_file
    assert from_preset.startswith("max_abs_diff=")
    assert 0.0 < _value_of(from_preset) < 3.2e-3


def test_scan_explicit_parameters(capsys):
    rc = main(["scan", "--a", "2", "--M", "6", "--N", "55", "--h", "0.078",
               "--sigma", "5", "--target", "gauss-derivative"])
    assert rc == 0
    assert _value_of(_lines(capsys)[-1]) < 7.3e-12


def test_scan_writes_curve_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    rc = main(["scan", "--preset", "sinc", "--lo", "-1", "--hi", "1",
               "--n", "11", "--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,approx_re,approx_im,reference,abs_diff"
    assert len(lines) == 12


@pytest.mark.parametrize("flags", [["--lo=-inf", "--hi", "0"], ["--lo", "0", "--hi", "nan"],
                                   ["--lo=-1e308", "--hi=1e308"]])
def test_scan_validation(flags, capsys):
    assert main(["scan", "--preset", "gauss-derivative", *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_scan_incompatible_reference(capsys):
    # the reference follows from (target, direction); there is no --ref
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--preset", "sinc", "--ref", "nu-gauss"])
    assert exc.value.code == 2


def test_scan_without_default_reference(capsys):
    rc = main(["scan", "--a", "2", "--M", "6", "--N", "55", "--h", "0.078",
               "--sigma", "5", "--target", "gauss-derivative",
               "--direction", "inverse"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: no closed-form reference")


def test_bare_invocation_runs_the_flagship(capsys):
    assert main([]) == 0
    lines = _lines(capsys)
    assert lines[0] == ("warning: no subcommand given; "
                        "scanning the sinc preset on [-2pi, 2pi]")
    assert lines[-1].startswith("max_abs_diff=")
    assert _value_of(lines[-1]) < 3.2e-3


def test_readme_transcript_matches(capsys):
    # the README's `$ ratfourier` block, line by line
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("$ ratfourier\n", 1)[1].split("```", 1)[0]
    assert main([]) == 0
    assert _lines(capsys) == block.strip().splitlines()


def test_missing_parameters_fall_back_to_preset(capsys):
    assert main(["scan"]) == 0
    lines = _lines(capsys)
    assert lines[0] == ("warning: missing input parameters; "
                        "defaulting to the sinc preset")
    assert _value_of(lines[-1]) < 3.2e-3


@pytest.mark.parametrize("argv", [
    # a lone --direction once fell back to the forward sinc preset
    ["coeffs", "--direction", "inverse", "--out", "c.json"],
    ["scan", "--direction", "inverse"],
    ["scan", "--a", "1"],
    ["scan", "--target", "gauss"],
    ["voigt", "--y", "1", "--a", "2"],
])
def test_incomplete_explicit_setup_is_refused(argv, tmp_path, monkeypatch, capsys):
    # any setup flag makes the setup explicit, and then it must be complete
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not (tmp_path / "c.json").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: explicit parameters require ")


def test_scan_at_an_exact_pole_is_a_breach(capsys):
    # gamma_1 = pi / (2^M h) = 2 pi, so gamma_1^2 + s^2 vanishes at nu = +-1
    rc = main(["scan", "--a", "0", "--M", "2", "--N", "8", "--h", "0.125",
               "--sigma", "0", "--target", "gauss", "--lo", "-1", "--hi", "1",
               "--n", "3"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: denominator gamma_m^2 + s^2")


@pytest.mark.parametrize("preset", ["sinc", "gauss-derivative"])
def test_scan_nan_difference_is_a_breach(preset, capsys):
    # the approximant and the reference overflow to NaN far out on the axis
    with pytest.warns(RuntimeWarning):
        rc = main(["scan", "--preset", preset, "--lo", "1e300", "--hi", "1.7e308",
                   "--n", "2"])
    assert rc == 1
    assert _lines(capsys)[-1] == "max_abs_diff=nan"


def test_unknown_preset_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["scan", "--preset", "nope"])


# --- identity-check ----------------------------------------------------------

def test_identity_check_passes(capsys):
    assert main(["identity-check"]) == 0
    lines = _lines(capsys)
    assert len(lines) == 13
    assert all(line.startswith("M=") for line in lines[:12])
    assert lines[-1].startswith("max_deviation=")
    assert _value_of(lines[-1]) <= 1e-11


@pytest.mark.parametrize(
    "flags",
    [["--m-min", "0"], ["--m-max", "13"], ["--m-min", "5", "--m-max", "3"],
     ["--samples", "0"]],
)
def test_identity_check_rejects_bad_order_range(flags, capsys):
    assert main(["identity-check", *flags]) == 2


# --- voigt --------------------------------------------------------------------

def test_voigt_single_point(capsys):
    rc = main(["voigt", "--y", "1", "--lo", "0", "--hi", "0", "--n", "1"])
    assert rc == 0
    assert _value_of(_lines(capsys)[-1]) <= 1e-12


def test_voigt_at_tiny_y_and_the_floor_tolerance(capsys):
    # the reference used to exhaust its panel budget here and exit 1; the
    # figure is the residue sum's error, within the preset's 1.56e-11 bound
    rc = main(["voigt", "--y", "1e-8", "--lo=-0.5", "--hi=-0.5", "--n", "1", "--tol", "1e-15"])
    assert rc == 0
    assert _value_of(_lines(capsys)[-1]) <= 1.56e-11


def test_voigt_refuses_y_whose_square_underflows(capsys):
    # the reference raised ConvergenceError here, exit 1; a y below its
    # domain is invalid input
    rc = main(["voigt", "--y", "1e-170", "--lo", "0", "--hi", "0", "--n", "1"])
    assert rc == 2
    assert "too small" in capsys.readouterr().err


def test_voigt_curve_file(tmp_path, capsys):
    path = tmp_path / "voigt.csv"
    rc = main(["voigt", "--y", "1", "--lo", "-2", "--hi", "2", "--n", "5",
               "--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,voigt_approx,voigt_ref,abs_diff"
    assert len(lines) == 6
    diffs = [float(line.split(",")[3]) for line in lines[1:]]
    assert _value_of(_lines(capsys)[-1]) == max(diffs)
    # at y = 1e100, K(0, y) = 1/(sqrt(pi) y) is far below tol, and the
    # reference keeps its relative accuracy: its cutoff does not depend on y
    from scipy.special import wofz

    assert main(["voigt", "--y", "1e100", "--lo", "0", "--hi", "0", "--n", "1",
                 "--out", str(path)]) == 0
    ref = float(path.read_text().splitlines()[1].split(",")[2])
    assert abs(ref - wofz(1e100j).real) <= 4.4e-16 * wofz(1e100j).real


def test_voigt_explicit_parameters(capsys):
    rc = main(["voigt", "--y", "1", "--lo", "0", "--hi", "0", "--n", "1",
               "--a", "2", "--M", "6", "--N", "55", "--h", "0.078",
               "--sigma", "5"])
    assert rc == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--y", "-1"],
        ["--y", "1", "--n", "0"],
        ["--y", "1", "--lo", "2", "--hi", "-2"],
        ["--y", "1", "--lo", "0", "--hi", "0", "--n", "2"],
        ["--y", "inf"],
        ["--y", "1", "--lo", "nan", "--hi", "nan"],
        ["--y", "1", "--hi", "inf"],
        ["--y", "1", "--lo", "0", "--hi", "0", "--n", "1", "--tol", "inf"],
        ["--y", "1", "--lo=-1e308", "--hi=1e308", "--n", "3"],
        # past the residue's overflow edge, at M = 6 and at M = 10
        ["--y", "1", "--lo", "1e300", "--hi", "1e300", "--n", "1"],
        ["--y", "1e300", "--lo", "0", "--hi", "0", "--n", "1"],
        ["--y", "1", "--lo", "3.1487e152", "--hi", "3.1487e152", "--n", "1"],
        ["--y", "1", "--lo", "0", "--hi", "8.37e151", "--n", "2", "--a", "2", "--M", "10",
         "--N", "880", "--h", "0.004875", "--sigma", "5"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_voigt_validation(flags, capsys):
    assert main(["voigt", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # refused by the inputs given, not by a NaN computed from them
    assert "nan" not in err or "nan" in flags


@pytest.mark.parametrize("flags", [["--preset", "sinc"], ["--direction", "inverse"],
                                   ["--target", "rect-surrogate"], ["--k", "35"]])
def test_voigt_rejects_preset_and_direction(flags, capsys):
    # voigt always builds forward Gaussian coefficients, whose target does not
    # use k; these flags are usage errors
    with pytest.raises(SystemExit) as exc:
        main(["voigt", "--y", "1", *flags])
    assert exc.value.code == 2


# --- oracle --------------------------------------------------------------------

def test_oracle_spot_check(capsys):
    assert main(["oracle", "--nu", "1"]) == 0
    lines = _lines(capsys)
    assert abs(_value_of(lines[0]) - math.exp(-1.0)) <= 1e-10
    assert abs(_value_of(lines[1])) <= 1e-10


def test_oracle_frequency_guard(capsys):
    assert main(["oracle", "--nu", "150"]) == 2


@pytest.mark.parametrize("flags", [["--lo=-inf", "--hi", "0"], ["--nu", "nan"],
                                   ["--shift", "nan"], ["--tol", "inf"]])
def test_oracle_validation(flags, capsys):
    assert main(["oracle", *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- parser ----------------------------------------------------------------

def test_option_sets_are_pinned():
    # a new or removed flag shows up here as a test change
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    params = {"--a", "--M", "--N", "--h", "--sigma"}
    setup = params | {"--k", "--target", "--preset", "--direction"}
    assert options == {
        "coeffs": setup | {"--out"},
        "scan": setup | {"--coeffs", "--lo", "--hi", "--n", "--out"},
        "identity-check": {"--m-min", "--m-max", "--samples", "--seed"},
        "voigt": params | {"--y", "--lo", "--hi", "--n", "--tol", "--out"},
        "oracle": {"--target", "--shift", "--nu", "--lo", "--hi", "--tol", "--k"},
    }
