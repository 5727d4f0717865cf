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
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, Direction, _write_csv
from .errors import check_denominator, check_direction
from .targets import ReferenceKind, reference_value


def _evaluate(coeffs, x, direction):
    # e^(w a) Sum_m (alpha_m s + beta_m) / (gamma_m^2 + s^2), s = sigma + w,
    # with w = +2 pi i x forward and its exact negation inverse, so both
    # directions round identically
    check_direction(coeffs, direction, f"the {direction.value} evaluator")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    w = math.tau * 1j * x
    if direction is Direction.INVERSE:
        w = -w
    s = (coeffs.params.sigma + w)[:, None]
    denom = coeffs.gamma[None, :] ** 2 + s * s
    # the mask is held until the sum is formed: freeing it first shifts the
    # glibc heap layout and about doubles the page faults of an M=10 scan
    small = check_denominator(denom, "denominator gamma_m^2 + s^2")
    pole_sum = np.sum((coeffs.alpha[None, :] * s + coeffs.beta[None, :]) / denom, axis=1)
    del small
    out = np.exp(w * coeffs.params.a) * pole_sum
    return complex(out[0]) if scalar else out


def eval_forward(coeffs: CoefficientSet, nu):
    """Forward rational approximant at nu (real scalar or array, complex ok)."""
    return _evaluate(coeffs, nu, Direction.FORWARD)


def eval_inverse(coeffs: CoefficientSet, t):
    """Inverse rational approximant at t (real scalar or array, complex ok)."""
    return _evaluate(coeffs, t, Direction.INVERSE)


@dataclass(frozen=True)
class EvaluationCurve:
    """One scan: grid, approximant values, reference values, absolute difference."""

    x: np.ndarray
    approx: np.ndarray
    reference: np.ndarray
    abs_diff: np.ndarray

    def __post_init__(self):
        n = len(self.x)
        if not (len(self.approx) == len(self.reference) == len(self.abs_diff) == n):
            raise ValueError("curve columns must have equal length")
        recomputed = np.abs(self.reference - self.approx.real)
        if not np.array_equal(recomputed, self.abs_diff):
            raise ValueError("abs_diff column inconsistent with reference - Re(approx)")
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
    if not lo < hi:
        raise ValueError(f"lo < hi violated (got {lo}, {hi})")
    if count < 2:
        raise ValueError(f"count >= 2 violated (got {count})")
    x = np.linspace(lo, hi, count)
    if coeffs.direction is Direction.FORWARD:
        approx = eval_forward(coeffs, x)
    else:
        approx = eval_inverse(coeffs, x)
    ref = np.asarray(reference_value(reference, x), dtype=float)
    return EvaluationCurve(
        x=x, approx=approx, reference=ref, abs_diff=np.abs(ref - approx.real)
    )
