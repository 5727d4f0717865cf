"""Brute-force integral references used to certify the approximants.

Two validators, both driven by the adaptive Gauss-Kronrod engine and
sharing no arithmetic with the rational evaluators:

* fourier_forward_quadrature computes F(nu) = integral f(t - shift)
  e^(-2 pi i nu t) dt directly from the target catalogue.
* damped_expansion_quadrature integrates the damped cosine expansion
  reconstructed from a coefficient set, times the transform kernel, over
  [0, upper].  With upper = infinity the damping envelope e^(-sigma t)
  justifies truncating where the envelope falls below 1e-18.  The
  odd-harmonic grid gamma_m = (2m - 1) gamma_1, an invariant of every
  CoefficientSet, turns the real and the imaginary part of the expansion
  each into 2 Re(z P(w)), z = e^(i gamma_1 t), w = z^2, with P a
  polynomial summed by Horner's rule: one Horner pass per node and
  nonzero part, one complex exponential per node and O(nodes) memory.

Both cap the panel width at 1/(8|nu|), an eighth of the kernel's period,
and refuse |nu| > 100: past that the kernel oscillation would need more
panels than a spot-check oracle should ever spend.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, Direction
from .errors import DampingError, RangeError, check_direction, check_interval, check_tol
from .quadrature import integrate
from .targets import SURROGATE_K, TargetKind, target_value

_NU_LIMIT = 100.0
_ENVELOPE_CUTOFF = 1e-18


@dataclass(frozen=True)
class QuadratureSpec:
    """Finite domain and tolerance for one oracle integration."""

    lo: float
    hi: float
    tol: float

    def __post_init__(self):
        check_interval(self.lo, self.hi)
        check_tol(self.tol)


def _check_nu(nu):
    if not abs(nu) <= _NU_LIMIT:
        raise RangeError(
            f"|nu| <= {_NU_LIMIT:g} violated (got {nu}); oscillation too fast for the oracle"
        )


def _osc_width(nu):
    # an eighth of a period of the kernel e^(-2 pi i nu t); no cap at nu = 0
    return 1.0 / (8.0 * abs(nu)) if nu != 0 else math.inf


def fourier_forward_quadrature(target: TargetKind, shift: float, nu: float,
                               spec: QuadratureSpec, k: int = SURROGATE_K) -> complex:
    """Direct transform of the shifted target over [spec.lo, spec.hi]."""
    _check_nu(nu)
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite (got {shift})")

    def integrand(t):
        return target_value(target, t - shift, k) * np.exp(-math.tau * 1j * nu * t)

    breakpoints = []
    if target is TargetKind.RECT_SURROGATE:
        # surrogate shoulders: the only places with appreciable curvature
        breakpoints = [shift - 0.5, shift + 0.5]
    return integrate(integrand, spec.lo, spec.hi, spec.tol, breakpoints=breakpoints,
                     max_width=_osc_width(nu)).value


def _horner(c, w):
    # sum_m c_m w^(m-1) by Horner's rule, in place on one (nodes,) array
    acc = np.full(w.shape, c[-1])
    for cm in c[-2::-1].tolist():
        acc *= w
        acc += cm
    return acc


def damped_expansion_quadrature(coeffs: CoefficientSet, nu: float, upper,
                                spec: QuadratureSpec) -> complex:
    """Transform of the damped cosine expansion over [0, upper].

    The expansion is rebuilt from (alpha, beta, gamma) via the exact
    identity sum_n v_n cos(gamma (t - nh)) = alpha cos(gamma t)
    + (beta/gamma) sin(gamma t) per term, so the integrand matches the
    pre-rearrangement double-sum form without quadratic cost.  With the
    grid invariant gamma_m = (2m - 1) gamma_1, e^(i gamma_m t) = z w^(m-1)
    for z = e^(i gamma_1 t) and w = z^2.  The real part of the expansion,
    sum_m a_m cos(gamma_m t) + c_m sin(gamma_m t) with (a, c) the real
    parts of (alpha, beta/gamma), is then 2 Re(z P(w)) for the polynomial
    P with coefficients (a_m - i c_m)/2, summed here without the exact
    halving as Re(z (2P)(w)).  The imaginary part, with (a, c) the
    imaginary parts, is the same sum, taken as Im(z (2iP)(w)).  A part
    whose coefficients are all zero is skipped.  Every catalogue target
    gives a real (sinc, Gaussian) or a purely imaginary (gauss-derivative)
    expansion, so each node takes one Horner pass; a set with both parts
    nonzero takes two.  A call costs one complex exponential and O(terms)
    multiply-adds per node and nonzero part, and O(nodes) memory.  spec.lo
    and spec.hi are ignored; the domain is dictated by `upper`, a positive
    number or math.inf (not -math.inf).
    """
    check_direction(coeffs, Direction.FORWARD, "damped-expansion oracle")
    _check_nu(nu)
    sigma = coeffs.params.sigma
    if upper == math.inf:
        if sigma <= 0:
            raise DampingError(
                "infinite upper limit needs sigma > 0 to damp the expansion"
            )
        upper = -math.log(_ENVELOPE_CUTOFF) / sigma
    if not upper > 0:
        raise ValueError(f"upper > 0 violated (got {upper})")

    gamma = coeffs.gamma
    alpha, beta_over_gamma = coeffs.alpha, coeffs.beta / gamma
    # Re of the expansion is Re(z H(w)) for H = Re alpha - i Re(beta/gamma),
    # Im of it Im(z H(w)) for H = Im(beta/gamma) + i Im alpha, i times the
    # same form; a part whose H is all zeros is skipped
    parts = [(unit, part, c) for unit, part, c in
             ((1.0, np.real, alpha.real - 1j * beta_over_gamma.real),
              (1j, np.imag, beta_over_gamma.imag + 1j * alpha.imag)) if c.any()]
    gamma_1 = float(gamma[0])

    def integrand(t):
        # gamma_m = (2m-1) gamma_1, so e^(i gamma_m t) = z w^(m-1)
        z = np.exp(1j * gamma_1 * t)
        w = z * z
        bracket = sum(unit * part(z * _horner(c, w)) for unit, part, c in parts)
        return bracket * np.exp(-(sigma + math.tau * 1j * nu) * t)

    max_width = min(4.0 / gamma[-1], _osc_width(nu))
    return integrate(integrand, 0.0, upper, spec.tol, max_width=max_width).value
