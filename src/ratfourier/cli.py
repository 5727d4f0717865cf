"""Command-line frontend for the rational-approximation pipeline.

Subcommands: coeffs (build and save a coefficient file), scan (error scan
against a closed-form reference), identity-check (cosine product-to-sum
identity sweep), voigt (residue evaluator vs. integral reference), oracle
(direct-transform spot check).  Every subcommand ends with a
machine-parseable key=value summary line.  Exit codes: 0 success,
1 property breach, 2 validation error.
"""

import argparse
import math
import sys
from dataclasses import MISSING, fields

import numpy as np

from .coefficients import (Direction, _fmt, _param_text, _write_csv, compute_coefficients,
                           load_coefficients, save_coefficients)
from .errors import ConvergenceError
from .oracle import QuadratureSpec, fourier_forward_quadrature
from .rational_eval import error_scan
from .targets import (SURROGATE_K, ApproxParams, ReferenceKind, TargetKind,
                      sample_grid)
from .trig_identity import cosine_sum, viete_product
from .voigt import VoigtPoint, voigt_quadrature, voigt_residue

EXIT_OK = 0
EXIT_BREACH = 1
EXIT_INVALID = 2


# preset name -> (ApproxParams fields, target); presets are forward sets
_PRESET_BINDINGS = {
    "sinc": (dict(a=0.6, k=SURROGATE_K, sigma=2.7, M=6, h=0.04, N=28),
             TargetKind.RECT_SURROGATE),
    "gauss-derivative": (dict(a=2.0, sigma=5.0, M=6, h=0.078, N=55),
                         TargetKind.GAUSSIAN_DERIVATIVE),
}

# the Voigt evaluator is validated with the gauss-derivative parameters (Gaussian target)
_VOIGT_BINDING = (_PRESET_BINDINGS["gauss-derivative"][0], TargetKind.GAUSSIAN)


# the reference a scan compares against, per (target, direction): the
# transform (forward) or inverse transform (inverse) of the sampled target.
# The inverse transform of the gauss-derivative target has no row: it is
# not among the closed-form references
_REFERENCES = {
    (TargetKind.RECT_SURROGATE, Direction.FORWARD): ReferenceKind.SINC,
    (TargetKind.RECT_SURROGATE, Direction.INVERSE): ReferenceKind.SINC,
    (TargetKind.GAUSSIAN_DERIVATIVE, Direction.FORWARD): ReferenceKind.NU_GAUSS,
    (TargetKind.GAUSSIAN, Direction.FORWARD): ReferenceKind.GAUSS,
    (TargetKind.GAUSSIAN, Direction.INVERSE): ReferenceKind.GAUSS,
}

# the flags that make a setup explicit
_SETUP_FLAGS = (*(f.name for f in fields(ApproxParams)), "target", "direction")
# an explicit setup requires these; voigt has them alone as its parameter flags
_REQUIRED_FIELDS = [f for f in fields(ApproxParams) if f.default is MISSING]


def _add_param_flags(sub, param_fields):
    for f in param_fields:
        sub.add_argument(f"--{f.name}", type=f.type)


def _add_setup_flags(sub):
    # coeffs and scan; voigt takes the parameter flags alone
    _add_param_flags(sub, fields(ApproxParams))
    sub.add_argument("--target", choices=[t.value for t in TargetKind])
    sub.add_argument("--preset", choices=sorted(_PRESET_BINDINGS))
    sub.add_argument("--direction", choices=[d.value for d in Direction])


def _given_setup(args):
    """{name: value} of the setup flags given."""
    return {n: getattr(args, n) for n in _SETUP_FLAGS if getattr(args, n, None) is not None}


def _resolve_setup(args, fallback=None):
    """Turn the setup flags into (params, target, direction).

    With no setup flag given, the setup is the forward one of the `fallback`
    (fields, target) binding, or else of --preset (sinc, with a warning,
    when there is none).  With any given, the setup is explicit: --preset is
    refused first, then every ApproxParams field without a default and
    --target are required.  voigt has no --target and takes the fallback's.
    """
    given = _given_setup(args)
    preset = getattr(args, "preset", None)
    binding, target = fallback or _PRESET_BINDINGS[preset or "sinc"]
    if not given:
        if fallback is None and preset is None:
            print("warning: missing input parameters; defaulting to the sinc preset")
        return ApproxParams(**binding), target, Direction.FORWARD
    if preset is not None:
        raise ValueError("--preset and explicit parameter flags are mutually exclusive")
    required = [f.name for f in _REQUIRED_FIELDS] + ["target"]
    missing = [n for n in required if n not in given and hasattr(args, n)]
    if missing:
        raise ValueError(f"explicit parameters require {', '.join('--' + n for n in missing)}")
    target = TargetKind(given.pop("target", target))
    direction = Direction(given.pop("direction", Direction.FORWARD))
    return ApproxParams(**given), target, direction


def _echo_params(params, target, direction):
    print(" ".join((
        *(f"{name}={text}" for name, text in _param_text(params)),
        f"direction={direction.value}", f"target={target.value}",
    )))


def _report_sweep(max_abs_diff) -> int:
    """Print a sweep's summary line; a difference that is not finite is a breach."""
    print(f"max_abs_diff={_fmt(max_abs_diff)}")
    return EXIT_OK if math.isfinite(max_abs_diff) else EXIT_BREACH


def cmd_coeffs(args) -> int:
    params, target, direction = _resolve_setup(args)
    if args.out is None:
        raise ValueError("coeffs requires --out <path>")
    coeffs = compute_coefficients(sample_grid(target, params), direction)
    save_coefficients(coeffs, args.out)
    _echo_params(params, target, direction)
    print(f"terms={params.terms}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.coeffs is not None:
        if args.preset is not None or _given_setup(args):
            raise ValueError("--coeffs excludes --preset and explicit parameter flags")
        coeffs = load_coefficients(args.coeffs)
    else:
        params, target, direction = _resolve_setup(args)
        coeffs = compute_coefficients(sample_grid(target, params), direction)

    ref = _REFERENCES.get((coeffs.target, coeffs.direction))
    if ref is None:
        raise ValueError(
            f"no closed-form reference for the {coeffs.direction.value} transform "
            f"of target {coeffs.target.value}"
        )

    curve = error_scan(coeffs, ref, args.lo, args.hi, args.n)
    if args.out is not None:
        curve.write(args.out)
    return _report_sweep(curve.max_abs_diff)


def cmd_identity_check(args) -> int:
    if not 1 <= args.m_min <= args.m_max <= 12:
        raise ValueError(
            f"1 <= m-min <= m-max <= 12 violated (got {args.m_min}, {args.m_max})"
        )
    if args.samples < 1:
        raise ValueError(f"samples >= 1 violated (got {args.samples})")
    rng = np.random.default_rng(args.seed)
    t = rng.uniform(-100.0, 100.0, args.samples)
    worst = 0.0
    for M in range(args.m_min, args.m_max + 1):
        dev = max(abs(viete_product(ti, M) - cosine_sum(ti, M)) for ti in t)
        print(f"M={M} max_dev={_fmt(dev)}")
        worst = max(worst, dev)
    print(f"max_deviation={_fmt(worst)}")
    return EXIT_OK if worst <= 1e-11 else EXIT_BREACH


def cmd_voigt(args) -> int:
    if args.n < 1:
        raise ValueError(f"n >= 1 violated (got {args.n})")
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise ValueError(f"lo and hi must be finite (got {args.lo}, {args.hi})")
    if args.lo > args.hi:
        raise ValueError(f"lo <= hi violated (got {args.lo}, {args.hi})")
    if args.lo == args.hi and args.n != 1:
        raise ValueError("lo == hi needs n=1")
    params, target, direction = _resolve_setup(args, _VOIGT_BINDING)
    coeffs = compute_coefficients(sample_grid(target, params), direction)

    xs = np.linspace(args.lo, args.hi, args.n)
    rows = []
    for x in xs:
        point = VoigtPoint(float(x), args.y)
        approx = voigt_residue(coeffs, point)
        ref = voigt_quadrature(point, args.tol)
        rows.append((float(x), approx, ref, abs(approx - ref)))
    if args.out is not None:
        _write_csv(args.out, "x,voigt_approx,voigt_ref,abs_diff", rows)
    # np.max, unlike max(), lets a NaN difference through
    return _report_sweep(float(np.max([row[3] for row in rows])))


def cmd_oracle(args) -> int:
    target = TargetKind(args.target)
    spec = QuadratureSpec(lo=args.lo, hi=args.hi, tol=args.tol)
    value = fourier_forward_quadrature(target, args.shift, args.nu, spec, k=args.k)
    print(f"value_re={_fmt(value.real)}")
    print(f"value_im={_fmt(value.imag)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratfourier",
        description="Rational approximations of Fourier transforms by damped sampling",
    )
    sub = parser.add_subparsers(dest="command")

    p_coeffs = sub.add_parser("coeffs", help="compute and save a coefficient file")
    _add_setup_flags(p_coeffs)
    p_coeffs.add_argument("--out", required=False)

    p_scan = sub.add_parser("scan", help="error-scan an approximant against its reference")
    _add_setup_flags(p_scan)
    p_scan.add_argument("--coeffs", help="load coefficients from a file instead")
    p_scan.add_argument("--lo", type=float, default=-math.tau)
    p_scan.add_argument("--hi", type=float, default=math.tau)
    p_scan.add_argument("--n", type=int, default=1000)
    p_scan.add_argument("--out")

    p_ident = sub.add_parser("identity-check", help="verify the product-to-sum identity")
    p_ident.add_argument("--m-min", type=int, default=1)
    p_ident.add_argument("--m-max", type=int, default=12)
    p_ident.add_argument("--samples", type=int, default=200)
    p_ident.add_argument("--seed", type=int, default=42)

    # voigt always builds forward Gaussian coefficients: no preset, no
    # direction, no target and no k
    p_voigt = sub.add_parser("voigt", help="Voigt residue evaluation vs. integral reference")
    _add_param_flags(p_voigt, _REQUIRED_FIELDS)
    p_voigt.add_argument("--y", type=float, required=True)
    p_voigt.add_argument("--lo", type=float, default=-math.tau)
    p_voigt.add_argument("--hi", type=float, default=math.tau)
    p_voigt.add_argument("--n", type=int, default=1000)
    p_voigt.add_argument("--tol", type=float, default=1e-14)
    p_voigt.add_argument("--out")

    p_oracle = sub.add_parser("oracle", help="direct-transform quadrature spot check")
    p_oracle.add_argument("--target", choices=[t.value for t in TargetKind],
                          default=TargetKind.GAUSSIAN.value)
    p_oracle.add_argument("--shift", type=float, default=0.0)
    p_oracle.add_argument("--nu", type=float, default=0.0)
    p_oracle.add_argument("--lo", type=float, default=-8.0)
    p_oracle.add_argument("--hi", type=float, default=8.0)
    p_oracle.add_argument("--tol", type=float, default=1e-12)
    p_oracle.add_argument("--k", type=int, default=SURROGATE_K)

    return parser


_HANDLERS = {
    "coeffs": cmd_coeffs,
    "scan": cmd_scan,
    "identity-check": cmd_identity_check,
    "voigt": cmd_voigt,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # no input at all still does something useful: run the flagship case
        print("warning: no subcommand given; scanning the sinc preset on [-2pi, 2pi]")
        args = parser.parse_args(["scan", "--preset", "sinc"])
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ArithmeticError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    sys.exit(main())
