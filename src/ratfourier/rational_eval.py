"""Evaluators for the rational transform approximants.

The forward form
    F(nu) ~ e^(2 pi i nu a) Sum_m (alpha_m s + beta_m) / (gamma_m^2 + s^2),
    s = sigma + 2 pi i nu,
comes from integrating the damped cosine expansion of the shifted samples
term by term over [0, inf).  The inverse form swaps the sign of the
oscillatory part (s conjugated, phase negated) and consumes coefficient
sets built from transform-domain samples.  error_scan sweeps either
evaluator over a uniform inclusive grid and reports the absolute
difference between a closed-form reference and the REAL part of the
approximant; comparing against the real part is the convention the
published validation numbers were produced with.

The pole sum is formed in blocks of max(1, _BLOCK_BYTES // (16 * terms))
points, so each complex (points x terms) temporary holds 64 KB up to M=13
and one point's row beyond, and evaluation memory is O(block x terms), not
O(points x terms).  64 KB stays below glibc's default 128 KB mmap
threshold, so the heap reuses each temporary's memory block after block
and a steady-state scan takes no page faults; 256 KB blocks fault on every
block.  Rows are reduced independently, so the values are bit for bit
those of one full-size pass.

The pole guard tests the denominators only where a bound cannot rule the
poles out.  Every term satisfies |gamma_m^2 + s^2| = |s - i gamma_m|
|s + i gamma_m| >= (Re s)^2, one real number per point: Re s =
sigma -/+ 2 pi Im x forward / inverse.  A call hands the smallest of these,
the bound for all its points, to check_denominator, which tests every
denominator in full only where the bound falls short of four times
DENOM_FLOOR (the factor covers rounding) or is NaN.  At real x that takes
sigma = 0, which makes every point fall short; a complex-x call with one
point near the line Re s = 0 tests every block.  The guard only decides
whether to raise, so it changes no value, and it raises on the same inputs
as testing every term.  A scan costs O(points x terms) time;
perfbench/run.py records the measured times.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, Direction, _write_csv
from .errors import check_denominator, check_direction, check_interval
from .targets import ReferenceKind, reference_value

# bytes of one complex (points x terms) temporary per block (module docstring)
_BLOCK_BYTES = 1 << 16


def _evaluate(coeffs, x, direction):
    # e^(w a) Sum_m (alpha_m s + beta_m) / (gamma_m^2 + s^2), s = sigma + w,
    # with w = +2 pi i x forward and its exact negation inverse, so both
    # directions round identically; each row of a block is reduced on its
    # own, so blocking changes no bit
    check_direction(coeffs, direction, f"the {direction.value} evaluator")
    if np.ndim(x) > 1:
        raise ValueError(f"x must be a scalar or a 1-D array (got shape {np.shape(x)})")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    w = math.tau * 1j * x
    if direction is Direction.INVERSE:
        w = -w
    sigma_w = coeffs.params.sigma + w
    gamma2 = coeffs.gamma[None, :] ** 2
    alpha, beta = coeffs.alpha[None, :], coeffs.beta[None, :]
    step = max(1, _BLOCK_BYTES // (16 * len(coeffs.gamma)))
    # one lower bound (Re s)^2 on every denominator of the call (module docstring)
    bound = np.min(np.square(sigma_w.real), initial=math.inf)
    pole_sum = np.empty(len(w), dtype=complex)
    for lo in range(0, len(w), step):
        s = sigma_w[lo:lo + step, None]
        denom = gamma2 + s * s
        check_denominator(denom, "denominator gamma_m^2 + s^2", bound)
        pole_sum[lo:lo + step] = np.sum((alpha * s + beta) / denom, axis=1)
    out = np.exp(w * coeffs.params.a) * pole_sum
    return complex(out[0]) if scalar else out


def eval_forward(coeffs: CoefficientSet, nu):
    """Forward rational approximant at nu (real scalar or 1-D array, complex ok)."""
    return _evaluate(coeffs, nu, Direction.FORWARD)


def eval_inverse(coeffs: CoefficientSet, t):
    """Inverse rational approximant at t (real scalar or 1-D array, complex ok)."""
    return _evaluate(coeffs, t, Direction.INVERSE)


@dataclass(frozen=True)
class EvaluationCurve:
    """One scan: grid, approximant values, reference values, and the
    absolute difference |reference - Re(approx)| derived from them."""

    x: np.ndarray
    approx: np.ndarray
    reference: np.ndarray
    abs_diff: np.ndarray = field(init=False)

    def __post_init__(self):
        if not len(self.approx) == len(self.reference) == len(self.x):
            raise ValueError("curve columns must have equal length")
        object.__setattr__(self, "abs_diff", np.abs(self.reference - self.approx.real))
        for arr in (self.x, self.approx, self.reference, self.abs_diff):
            arr.setflags(write=False)

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(self.abs_diff))

    def write(self, path) -> None:
        """Write the curve as delimited text, 17 significant digits per field."""
        _write_csv(path, "x,approx_re,approx_im,reference,abs_diff",
                   zip(self.x, self.approx.real, self.approx.imag, self.reference, self.abs_diff))


def error_scan(coeffs: CoefficientSet, reference: ReferenceKind,
               lo: float, hi: float, count: int) -> EvaluationCurve:
    """Scan the approximant against a reference on an inclusive uniform grid."""
    check_interval(lo, hi)
    if count < 2:
        raise ValueError(f"count >= 2 violated (got {count})")
    x = np.linspace(lo, hi, count)
    if coeffs.direction is Direction.FORWARD:
        approx = eval_forward(coeffs, x)
    else:
        approx = eval_inverse(coeffs, x)
    ref = np.asarray(reference_value(reference, x), dtype=float)
    return EvaluationCurve(x=x, approx=approx, reference=ref)
