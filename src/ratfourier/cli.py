"""Command-line frontend for the rational-approximation pipeline.

Subcommands: coeffs (build and save a coefficient file), scan (error scan
against a closed-form reference), identity-check (cosine product-to-sum
identity sweep), voigt (residue evaluator vs. integral reference), oracle
(direct-transform spot check).  Every subcommand ends with a
machine-parseable key=value summary line.  Exit codes: 0 success,
1 property breach, 2 validation error, 3 incompatible request.
"""

import argparse
import math
import sys

import numpy as np

from .coefficients import (Direction, _fmt, _write_csv, compute_coefficients,
                           load_coefficients, save_coefficients)
from .errors import ConvergenceError, DirectionError
from .oracle import QuadratureSpec, fourier_forward_quadrature
from .rational_eval import error_scan
from .targets import ApproxParams, ReferenceKind, TargetKind, sample_grid
from .trig_identity import cosine_sum, viete_product
from .voigt import VoigtPoint, voigt_quadrature, voigt_residue

EXIT_OK = 0
EXIT_BREACH = 1
EXIT_INVALID = 2
EXIT_INCOMPATIBLE = 3


# preset name -> (ApproxParams fields, target); presets are forward sets
_PRESET_BINDINGS = {
    "sinc": (dict(a=0.6, k=35, sigma=2.7, M=6, h=0.04, N=28),
             TargetKind.RECT_SURROGATE),
    "gauss-derivative": (dict(a=2.0, sigma=5.0, M=6, h=0.078, N=55),
                         TargetKind.GAUSSIAN_DERIVATIVE),
}

# the Voigt evaluator is validated with the gauss-derivative parameters (Gaussian target)
_VOIGT_BINDING = _PRESET_BINDINGS["gauss-derivative"][0]


# which references a scan can be meaningfully compared against, per
# (target, direction): the reference must equal the transform (forward) or
# inverse transform (inverse) of the sampled target
_ALLOWED_REFS = {
    (TargetKind.RECT_SURROGATE, Direction.FORWARD): {ReferenceKind.SINC},
    (TargetKind.RECT_SURROGATE, Direction.INVERSE): {ReferenceKind.SINC},
    (TargetKind.GAUSSIAN_DERIVATIVE, Direction.FORWARD): {ReferenceKind.NU_GAUSS},
    (TargetKind.GAUSSIAN_DERIVATIVE, Direction.INVERSE): set(),
    (TargetKind.GAUSSIAN, Direction.FORWARD): {ReferenceKind.GAUSS},
    (TargetKind.GAUSSIAN, Direction.INVERSE): {ReferenceKind.GAUSS},
}

_PARAM_NAMES = ("a", "M", "N", "h", "sigma", "k")
_REQUIRED_PARAMS = ("a", "M", "N", "h", "sigma")


def _add_param_flags(sub):
    sub.add_argument("--a", type=float)
    sub.add_argument("--M", type=int)
    sub.add_argument("--N", type=int)
    sub.add_argument("--h", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--k", type=int)
    sub.add_argument("--target", choices=[t.value for t in TargetKind])


def _explicit_params(args):
    """ApproxParams from the explicit parameter flags; None when none is given."""
    explicit = {n: getattr(args, n) for n in _PARAM_NAMES if getattr(args, n) is not None}
    if not explicit:
        return None
    missing = [n for n in _REQUIRED_PARAMS if n not in explicit]
    if missing:
        raise ValueError(f"explicit parameters require {', '.join('--' + n for n in missing)}")
    return ApproxParams(**explicit)


def _resolve_setup(args):
    """Turn preset/explicit flags into (params, target, direction)."""
    flags = (args.target, args.direction, *(getattr(args, n) for n in _PARAM_NAMES))
    if args.preset is not None and any(f is not None for f in flags):
        raise ValueError("--preset and explicit parameter flags are mutually exclusive")
    params = _explicit_params(args)
    if params is None and args.target is None:
        if args.preset is None:
            print("warning: missing input parameters; defaulting to the sinc preset")
        binding, target = _PRESET_BINDINGS[args.preset or "sinc"]
        return ApproxParams(**binding), target, Direction.FORWARD
    if args.target is None:
        raise ValueError("explicit parameters require --target")
    if params is None:
        raise ValueError("explicit parameters require --a, --M, --N, --h, --sigma")
    direction = Direction(args.direction) if args.direction else Direction.FORWARD
    return params, TargetKind(args.target), direction


def _echo_params(params, target, direction):
    print(" ".join((
        f"a={_fmt(params.a)}", f"M={params.M}", f"N={params.N}", f"h={_fmt(params.h)}",
        f"sigma={_fmt(params.sigma)}", f"k={params.k}",
        f"direction={direction.value}", f"target={target.value}",
    )))


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
        if args.preset is not None:
            raise ValueError("--coeffs and --preset are mutually exclusive")
        coeffs = load_coefficients(args.coeffs)
    else:
        params, target, direction = _resolve_setup(args)
        coeffs = compute_coefficients(sample_grid(target, params), direction)

    key = (coeffs.target, coeffs.direction)
    allowed = _ALLOWED_REFS.get(key, set())
    if args.ref is not None:
        ref = ReferenceKind(args.ref)
    elif len(allowed) == 1:
        ref = next(iter(allowed))
    else:
        raise ValueError("no default reference for this target/direction; pass --ref")
    if ref not in allowed:
        raise DirectionError(
            f"reference {ref.value} is not the {coeffs.direction.value} transform of "
            f"target {coeffs.target.value}"
        )

    curve = error_scan(coeffs, ref, args.lo, args.hi, args.n)
    if args.out is not None:
        curve.write(args.out)
    print(f"max_abs_diff={_fmt(curve.max_abs_diff)}")
    return EXIT_OK


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
    if not args.y > 0:
        raise ValueError(f"y > 0 violated (got {args.y})")
    if args.n < 1:
        raise ValueError(f"n >= 1 violated (got {args.n})")
    if args.lo > args.hi:
        raise ValueError(f"lo <= hi violated (got {args.lo}, {args.hi})")
    if args.lo == args.hi and args.n != 1:
        raise ValueError("lo == hi needs n=1")
    if args.target is not None and TargetKind(args.target) is not TargetKind.GAUSSIAN:
        raise ValueError("the Voigt evaluator needs the gauss target")
    params = _explicit_params(args) or ApproxParams(**_VOIGT_BINDING)
    coeffs = compute_coefficients(sample_grid(TargetKind.GAUSSIAN, params),
                                  Direction.FORWARD)

    xs = np.linspace(args.lo, args.hi, args.n)
    rows = []
    worst = 0.0
    for x in xs:
        point = VoigtPoint(float(x), args.y)
        approx = voigt_residue(coeffs, point)
        ref = voigt_quadrature(point, args.tol)
        diff = abs(approx - ref)
        worst = max(worst, diff)
        rows.append((float(x), approx, ref, diff))
    if args.out is not None:
        _write_csv(args.out, "x,voigt_approx,voigt_ref,abs_diff", rows)
    print(f"max_abs_diff={_fmt(worst)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    target = TargetKind(args.target)
    spec = QuadratureSpec(lo=args.lo, hi=args.hi, tol=args.tol)
    value = fourier_forward_quadrature(target, args.shift, args.nu, spec,
                                       k=args.k if args.k is not None else 35)
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
    _add_param_flags(p_coeffs)
    p_coeffs.add_argument("--out", required=False)

    p_scan = sub.add_parser("scan", help="error-scan an approximant against a reference")
    _add_param_flags(p_scan)
    p_scan.add_argument("--coeffs", help="load coefficients from a file instead")
    p_scan.add_argument("--ref", choices=[r.value for r in ReferenceKind])
    p_scan.add_argument("--lo", type=float, default=-math.tau)
    p_scan.add_argument("--hi", type=float, default=math.tau)
    p_scan.add_argument("--n", type=int, default=1000)
    p_scan.add_argument("--out")

    # voigt always builds forward Gaussian coefficients: no preset, no direction
    for p in (p_coeffs, p_scan):
        p.add_argument("--preset", choices=sorted(_PRESET_BINDINGS))
        p.add_argument("--direction", choices=[d.value for d in Direction])

    p_ident = sub.add_parser("identity-check", help="verify the product-to-sum identity")
    p_ident.add_argument("--m-min", type=int, default=1)
    p_ident.add_argument("--m-max", type=int, default=12)
    p_ident.add_argument("--samples", type=int, default=200)
    p_ident.add_argument("--seed", type=int, default=42)

    p_voigt = sub.add_parser("voigt", help="Voigt residue evaluation vs. integral reference")
    _add_param_flags(p_voigt)
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
    p_oracle.add_argument("--k", type=int)

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
    except DirectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ArithmeticError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    sys.exit(main())
