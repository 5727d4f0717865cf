"""End-to-end command-line behaviour, run in-process through main()."""

import itertools
import math

import pytest

from ratfourier import Direction, ReferenceKind, TargetKind, load_coefficients
from ratfourier.cli import _ALLOWED_REFS, main

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


def test_preset_and_explicit_flags_conflict(tmp_path, capsys):
    rc = main(["coeffs", "--preset", "sinc", "--a", "1.0",
               "--out", str(tmp_path / "c.json")])
    assert rc == 2


# --- scan -------------------------------------------------------------------

def test_reference_table_is_complete():
    # a row per (target, direction), and no reference that no row allows
    assert set(_ALLOWED_REFS) == set(itertools.product(TargetKind, Direction))
    assert set().union(*_ALLOWED_REFS.values()) == set(ReferenceKind)


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


def test_scan_incompatible_reference(capsys):
    assert main(["scan", "--preset", "sinc", "--ref", "nu-gauss"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_scan_without_default_reference(capsys):
    rc = main(["scan", "--a", "2", "--M", "6", "--N", "55", "--h", "0.078",
               "--sigma", "5", "--target", "gauss-derivative",
               "--direction", "inverse"])
    assert rc == 2


def test_bare_invocation_runs_the_flagship(capsys):
    assert main([]) == 0
    lines = _lines(capsys)
    assert lines[0] == ("warning: no subcommand given; "
                        "scanning the sinc preset on [-2pi, 2pi]")
    assert lines[-1].startswith("max_abs_diff=")
    assert _value_of(lines[-1]) < 3.2e-3


def test_missing_parameters_fall_back_to_preset(capsys):
    assert main(["scan"]) == 0
    lines = _lines(capsys)
    assert lines[0] == ("warning: missing input parameters; "
                        "defaulting to the sinc preset")
    assert _value_of(lines[-1]) < 3.2e-3


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
    [["--m-min", "0"], ["--m-max", "13"], ["--m-min", "5", "--m-max", "3"]],
)
def test_identity_check_rejects_bad_order_range(flags, capsys):
    assert main(["identity-check", *flags]) == 2


# --- voigt --------------------------------------------------------------------

def test_voigt_single_point(capsys):
    rc = main(["voigt", "--y", "1", "--lo", "0", "--hi", "0", "--n", "1"])
    assert rc == 0
    assert _value_of(_lines(capsys)[-1]) <= 1e-12


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


def test_voigt_explicit_parameters(capsys):
    rc = main(["voigt", "--y", "1", "--lo", "0", "--hi", "0", "--n", "1",
               "--a", "2", "--M", "6", "--N", "55", "--h", "0.078",
               "--sigma", "5", "--target", "gauss"])
    assert rc == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--y", "-1"],
        ["--y", "1", "--n", "0"],
        ["--y", "1", "--lo", "2", "--hi", "-2"],
        ["--y", "1", "--lo", "0", "--hi", "0", "--n", "2"],
        ["--y", "1", "--target", "rect-surrogate"],
    ],
)
def test_voigt_validation(flags, capsys):
    assert main(["voigt", *flags]) == 2


@pytest.mark.parametrize("flags", [["--preset", "sinc"], ["--direction", "inverse"]])
def test_voigt_rejects_preset_and_direction(flags, capsys):
    # voigt always builds forward Gaussian coefficients; these flags are usage errors
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
